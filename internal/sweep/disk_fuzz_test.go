package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pard/internal/metrics"
	"pard/internal/simgpu"
	"pard/internal/trace"
	"pard/internal/wire"
)

// goldenEntries returns the entries of pard-bench's disk cache golden: the
// files one tiny run persisted, each as "== name len\n", its bytes, "\n".
func goldenEntries(tb testing.TB) [][]byte {
	blob, err := os.ReadFile(filepath.Join("..", "..", "cmd", "pard-bench", "testdata", "diskcache.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var entries [][]byte
	for len(blob) > 0 {
		var name string
		var n int
		eol := bytes.IndexByte(blob, '\n')
		if _, err := fmt.Sscanf(string(blob[:max(eol, 0)]), "== %s %d", &name, &n); err != nil {
			tb.Fatalf("golden entry header: %v", err)
		}
		if len(blob) < eol+n+2 || blob[eol+n+1] != '\n' {
			tb.Fatalf("golden entry %s is cut short", name)
		}
		entries = append(entries, blob[eol+1:eol+1+n])
		blob = blob[eol+n+2:]
	}
	return entries
}

// FuzzDiskEntry feeds the disk cache arbitrary bytes as the entry for a key.
// load must never panic, and must end in a verified hit — a value stored
// under this scope and key, of the type the key's prefix names: a Result
// with a collector under run|, a Trace under trace| — or in a miss that
// quarantined the file. The seeds are the golden's entries under their own
// keys, so mutations start from a real result and a real trace.
func FuzzDiskEntry(f *testing.F) {
	var scope string
	for _, data := range goldenEntries(f) {
		r := wire.NewReader(data)
		scope = r.Str()
		key := r.Str()
		if _, err := decodeEntry(data, scope, key); err != nil {
			f.Fatalf("golden entry does not decode: %v", err)
		}
		f.Add(key, data)
	}
	f.Add("run|k", []byte("not an entry"))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		if len(data) > 64<<10 {
			return // keep adversarial inputs cheap
		}
		d := &diskCache{dir: dir, scope: scope}
		path := d.path(key)
		defer os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, hit := d.load(key, nil)
		_, err := os.Stat(path + ".corrupt")
		quarantined := err == nil && d.quarantined == 1
		if hit == quarantined {
			t.Fatalf("hit %v (value %T), quarantined %v: want a verified hit or a quarantined miss", hit, v, quarantined)
		}
		if !hit {
			return
		}
		switch v := v.(type) {
		case *simgpu.Result:
			if !strings.HasPrefix(key, runPrefix) || v == nil || v.Collector == nil {
				t.Fatalf("key %q served a result %+v", key, v)
			}
			// A served collector must survive what its readers call, and
			// its window series must be no longer than the entry.
			c := v.Collector
			c.Summary()
			c.LatencyQuantiles(0.5, 0.99, 1)
			c.MaxDropRate(metrics.WindowBase)
			c.MinNormalizedGoodput(metrics.WindowBase)
			if ts, _ := c.GoodputSeries(metrics.WindowBase); len(ts) > len(data) {
				t.Fatalf("%d windows from a %d-byte entry", len(ts), len(data))
			}
		case *trace.Trace:
			if !strings.HasPrefix(key, tracePrefix) || v == nil {
				t.Fatalf("key %q served a trace %+v", key, v)
			}
		default:
			t.Fatalf("key %q served a %T", key, v)
		}
		// What decodes re-encodes to the identical bytes.
		if again, ok := appendEntry(nil, scope, key, v); !ok || !bytes.Equal(again, data) {
			t.Fatalf("entry decodes but re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
