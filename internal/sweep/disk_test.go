package sweep

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"

	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/trace"
	"pard/internal/wire"
)

func diskEngine(t *testing.T, dir string, seed int64) *Engine {
	t.Helper()
	e := New(Config{
		Workers:       2,
		BaseSeed:      seed,
		TraceDuration: 30 * time.Second,
		CacheDir:      dir,
	})
	if err := e.DiskError(); err != nil {
		t.Fatal(err)
	}
	return e
}

func smokeSpec() Spec {
	return Spec{App: "tm", Kind: trace.Steady, Policy: "pard"}
}

// TestDiskCacheRoundTrip runs one grid point cold, then re-runs it through a
// fresh engine sharing the cache directory: the second run must be a disk
// hit producing a deep-equal result without recomputing.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()

	e1 := diskEngine(t, dir, 1)
	r1, err := e1.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := e1.DiskStats(); hits != 0 || misses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", hits, misses)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.entry"))
	if len(files) == 0 {
		t.Fatal("cold run persisted nothing")
	}

	e2 := diskEngine(t, dir, 1)
	r2, err := e2.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e2.DiskStats(); hits == 0 {
		t.Fatal("warm run had no disk hits")
	}
	if !reflect.DeepEqual(r1.Summary, r2.Summary) {
		t.Fatalf("summaries differ:\ncold %+v\nwarm %+v", r1.Summary, r2.Summary)
	}
	// The collector's digest folds in every per-request record.
	if !reflect.DeepEqual(r1.Collector, r2.Collector) {
		t.Fatal("collector state (record digest, buckets, histogram) differs after disk round trip")
	}
	if r1.Workload != r2.Workload || r1.PolicyName != r2.PolicyName ||
		!reflect.DeepEqual(r1.TargetBatches, r2.TargetBatches) ||
		!reflect.DeepEqual(r1.PeakWorkers, r2.PeakWorkers) {
		t.Fatal("run metadata differs after disk round trip")
	}
}

// TestDiskCacheScopedBySeed proves a different base seed never reuses
// another seed's entries (run seeds derive from the base).
func TestDiskCacheScopedBySeed(t *testing.T) {
	dir := t.TempDir()
	e1 := diskEngine(t, dir, 1)
	if _, err := e1.Run(smokeSpec()); err != nil {
		t.Fatal(err)
	}
	e2 := diskEngine(t, dir, 2)
	if _, err := e2.Run(smokeSpec()); err != nil {
		t.Fatal(err)
	}
	if hits, _ := e2.DiskStats(); hits != 0 {
		t.Fatalf("seed 2 hit seed 1's cache entries (%d hits)", hits)
	}
}

// TestDiskCacheIgnoresCorruptEntries overwrites a cache file with garbage:
// the engine must fall back to recomputing, not fail.
func TestDiskCacheIgnoresCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	e1 := diskEngine(t, dir, 1)
	r1, err := e1.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.entry"))
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not an entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2 := diskEngine(t, dir, 1)
	r2, err := e2.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e2.DiskStats(); hits != 0 {
		t.Fatal("corrupt entry counted as hit")
	}
	if !reflect.DeepEqual(r1.Summary, r2.Summary) {
		t.Fatal("recomputed result differs")
	}
}

// TestDiskCacheTraceReuse covers the second artifact type: synthesized
// traces round-trip through the disk cache too.
func TestDiskCacheTraceReuse(t *testing.T) {
	dir := t.TempDir()
	e1 := diskEngine(t, dir, 1)
	tr1, err := e1.Trace(trace.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	e2 := diskEngine(t, dir, 1)
	tr2, err := e2.Trace(trace.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e2.DiskStats(); hits != 1 {
		t.Fatalf("trace reload: %d hits, want 1", hits)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("trace differs after disk round trip")
	}
}

// TestDiskCacheQuarantinesCorruptEntries corrupts persisted entries — a
// flipped byte inside one, a crash-style truncation of another — and
// verifies the sweep still completes with byte-identical results while the
// damaged files are renamed aside (so they never serve, and never get
// re-read) and the quarantine is logged.
func TestDiskCacheQuarantinesCorruptEntries(t *testing.T) {
	encode := func(r *simgpu.Result) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	dir := t.TempDir()
	e1 := diskEngine(t, dir, 1)
	r1, err := e1.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := encode(r1)

	files, _ := filepath.Glob(filepath.Join(dir, "*.entry"))
	if len(files) < 2 {
		t.Fatalf("expected run + trace entries, found %v", files)
	}
	sort.Strings(files)
	// Entry one: flip a byte of the embedded scope string — the frame still
	// decodes, but verification must reject (and quarantine) it.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte(fmt.Sprintf("v%d|seed=", diskFormat)))
	if idx < 0 {
		t.Fatal("scope string not found in entry bytes")
	}
	data[idx] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry two: a crash-style truncation — the frame no longer decodes.
	if err := os.Truncate(files[1], 10); err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logs []string
	e2 := New(Config{
		Workers: 2, BaseSeed: 1, TraceDuration: 30 * time.Second, CacheDir: dir,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err := e2.DiskError(); err != nil {
		t.Fatal(err)
	}
	rs, err := e2.Sweep([]Spec{smokeSpec()})
	if err != nil {
		t.Fatalf("sweep over a corrupt cache failed: %v", err)
	}
	if !bytes.Equal(encode(rs[0]), want) {
		t.Fatal("recomputed result not byte-identical to the original")
	}
	if hits, _ := e2.DiskStats(); hits != 0 {
		t.Fatalf("corrupt entries served as hits (%d)", hits)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != 2 {
		t.Fatalf("quarantined %d entries, want 2 (%v)", len(quarantined), quarantined)
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "quarantined corrupt cache entry") {
		t.Fatalf("quarantine not logged:\n%s", joined)
	}

	// The recompute re-persisted clean entries: a third engine hits again,
	// and the quarantined bytes are left alone for post-mortems.
	e3 := diskEngine(t, dir, 1)
	r3, err := e3.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e3.DiskStats(); hits == 0 {
		t.Fatal("re-persisted entries not served as hits")
	}
	if !bytes.Equal(encode(r3), want) {
		t.Fatal("re-persisted result not byte-identical")
	}
}

// TestDiskCacheQuarantinesHostileCollector: an entry that decodes as gob but
// holds a collector no run produces — no modules, or a non-positive SLO — is
// a quarantined miss, not a panic inside load.
func TestDiskCacheQuarantinesHostileCollector(t *testing.T) {
	for _, col := range []*metrics.Collector{
		{SLO: time.Second, NModules: 0},
		{SLO: -time.Second, NModules: 2},
	} {
		d, err := newDiskCache(t.TempDir(), 1, "test", nil)
		if err != nil {
			t.Fatal(err)
		}
		d.store("run|hostile", &simgpu.Result{Collector: col})
		if _, err := os.Stat(d.path("run|hostile")); err != nil {
			t.Fatalf("collector %+v: entry not stored: %v", col, err)
		}
		if v, ok := d.load("run|hostile", nil); ok {
			t.Fatalf("collector %+v: served %+v", col, v)
		}
		if _, err := os.Stat(d.path("run|hostile") + ".corrupt"); err != nil || d.quarantined != 1 {
			t.Fatalf("collector %+v: not quarantined (%d quarantined, %v)", col, d.quarantined, err)
		}
	}
}

// TestDiskEntryHoldsWhatItsKeyNames: an entry under a run key must hold a
// result with a collector. A run key holding a trace once panicked Run's
// type assertion, and a result with no collector was served as a hit to a
// reader that dereferenced it. Both are quarantined misses now, the run is
// recomputed, and store refuses to write a value its key does not name.
func TestDiskEntryHoldsWhatItsKeyNames(t *testing.T) {
	want, err := New(Config{Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	col, err := want.Collector.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "steady", Arrivals: []time.Duration{0, time.Millisecond}, Duration: time.Second}
	key := runPrefix + smokeSpec().Key()
	for name, value := range map[string][]byte{
		"a trace":                    trace.AppendTrace(nil, tr),
		"a result with no collector": simgpu.AppendResult(nil, want)[len(col):],
	} {
		t.Run(name, func(t *testing.T) {
			e := diskEngine(t, t.TempDir(), 1)
			e.disk.store(key, tr)
			if _, err := os.Stat(e.disk.path(key)); !os.IsNotExist(err) {
				t.Fatalf("a trace was stored under a run key (stat: %v)", err)
			}
			entry := append(wire.AppendStr(wire.AppendStr(nil, e.disk.scope), key), value...)
			if err := os.WriteFile(e.disk.path(key), entry, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(smokeSpec())
			if err != nil {
				t.Fatal(err)
			}
			if hits, _ := e.DiskStats(); hits != 0 {
				t.Fatalf("%d disk hits on an entry holding %s", hits, name)
			}
			if _, err := os.Stat(e.disk.path(key) + ".corrupt"); err != nil {
				t.Fatalf("the entry was not quarantined: %v", err)
			}
			if !reflect.DeepEqual(got.Summary, want.Summary) {
				t.Fatalf("recomputed summary %+v, want %+v", got.Summary, want.Summary)
			}
		})
	}
}

// TestDiskCacheMisfitIsAMiss: a well-formed run entry holding another
// pipeline's result — 9 modules under tm's 3-module key — decodes, but the
// experiments would index its per-module slices as tm's. Run, SweepCtx and
// Lookup each check a disk hit against its spec, as a worker's result is
// checked: the entry is quarantined and the run recomputed.
func TestDiskCacheMisfitIsAMiss(t *testing.T) {
	want, err := New(Config{Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	nine := Spec{Pipeline: pipeline.Uniform("nine", 9, "objdet", 400*time.Millisecond), Kind: trace.Steady, Policy: "pard"}
	misfit, err := New(Config{Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second}).Run(nine)
	if err != nil {
		t.Fatal(err)
	}
	if smokeSpec().Fits(misfit) == nil {
		t.Fatal("a 9-module result fits tm")
	}
	key := runPrefix + smokeSpec().Key()
	for name, serve := range map[string]func(e *Engine) (*simgpu.Result, error){
		"Run": func(e *Engine) (*simgpu.Result, error) { return e.Run(smokeSpec()) },
		"SweepCtx": func(e *Engine) (*simgpu.Result, error) {
			rs, err := e.SweepCtx(context.Background(), []Spec{smokeSpec()})
			if err != nil {
				return nil, err
			}
			return rs[0], nil
		},
		"Lookup": func(e *Engine) (*simgpu.Result, error) {
			if r, ok := e.Lookup(smokeSpec()); ok {
				return r, nil
			}
			return e.Run(smokeSpec())
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := diskEngine(t, t.TempDir(), 1)
			e.disk.store(key, misfit)
			got, err := serve(e)
			if err != nil {
				t.Fatal(err)
			}
			if hits, _ := e.DiskStats(); hits != 0 {
				t.Fatalf("%d disk hits on a 9-module entry under tm's key", hits)
			}
			if _, err := os.Stat(e.disk.path(key) + ".corrupt"); err != nil {
				t.Fatalf("the entry was not quarantined: %v", err)
			}
			if err := smokeSpec().Fits(got); err != nil || !reflect.DeepEqual(got.Summary, want.Summary) {
				t.Fatalf("recomputed summary %+v (fit: %v), want %+v", got.Summary, err, want.Summary)
			}
		})
	}
}

// TestDiskFormat4EntryIsAMiss: an entry as format 4 wrote it — gob, under a
// v4 scope and a .gob name — is never served. Under its own name it is never
// read; its bytes under this format's name fail verification and are
// quarantined, and the run is recomputed.
func TestDiskFormat4EntryIsAMiss(t *testing.T) {
	want, err := New(Config{Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	type v4Entry struct {
		Scope string
		Key   string
		Val   any
	}
	gob.Register(&simgpu.Result{})
	dir := t.TempDir()
	e := diskEngine(t, dir, 1)
	key := runPrefix + smokeSpec().Key()
	scope := strings.Replace(e.disk.scope, fmt.Sprintf("v%d|", diskFormat), "v4|", 1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v4Entry{Scope: scope, Key: key, Val: want}); err != nil {
		t.Fatal(err)
	}
	v4 := &diskCache{dir: dir, scope: scope}
	v4Path := strings.TrimSuffix(v4.path(key), ".entry") + ".gob"
	for _, path := range []string{v4Path, e.disk.path(key)} {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.DiskStats(); hits != 0 {
		t.Fatalf("%d disk hits on format 4 entries", hits)
	}
	if _, err := os.Stat(e.disk.path(key) + ".corrupt"); err != nil {
		t.Fatalf("the v4 bytes under this format's name were not quarantined: %v", err)
	}
	if _, err := os.Stat(v4Path); err != nil {
		t.Fatalf("the v4 entry under its own name was touched: %v", err)
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("recomputed summary %+v, want %+v", got.Summary, want.Summary)
	}
}
