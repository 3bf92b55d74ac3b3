package sweep

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pard/internal/metrics"
	"pard/internal/simgpu"
)

// goldenEntries returns the entries of pard-bench's disk cache golden: the
// files one tiny run persisted, each as "== name len\n", its bytes, "\n".
func goldenEntries(tb testing.TB) [][]byte {
	blob, err := os.ReadFile(filepath.Join("..", "..", "cmd", "pard-bench", "testdata", "diskcache.gob.golden"))
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
// under this scope and key — or in a miss that quarantined the file. The
// seeds are the golden's entries under their own keys, so mutations start
// from a real result and a real trace.
func FuzzDiskEntry(f *testing.F) {
	var scope string
	for _, data := range goldenEntries(f) {
		var e diskEntry
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
			f.Fatalf("golden entry does not decode: %v", err)
		}
		scope = e.Scope
		f.Add(e.Key, data)
	}
	f.Add("run|k", []byte("not a gob"))

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
		v, hit := d.load(key)
		_, err := os.Stat(path + ".corrupt")
		quarantined := err == nil && d.quarantined == 1
		if hit == quarantined || hit && v == nil {
			t.Fatalf("hit %v (value %T), quarantined %v: want a verified hit or a quarantined miss", hit, v, quarantined)
		}
		if res, ok := v.(*simgpu.Result); ok && res.Collector != nil {
			// A served collector must survive what its readers call, and
			// its window series must be no longer than the entry.
			c := res.Collector
			c.Summary()
			c.LatencyQuantiles(0.5, 0.99, 1)
			c.MaxDropRate(metrics.WindowBase)
			c.MinNormalizedGoodput(metrics.WindowBase)
			if ts, _ := c.GoodputSeries(metrics.WindowBase); len(ts) > len(data) {
				t.Fatalf("%d windows from a %d-byte entry", len(ts), len(data))
			}
		}
	})
}
