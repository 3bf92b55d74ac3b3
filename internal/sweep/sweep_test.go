package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := DeriveSeed(1, "run|lv|tweet|pard")
	if a != DeriveSeed(1, "run|lv|tweet|pard") {
		t.Fatal("seed derivation not stable")
	}
	seen := map[int64]string{}
	for _, key := range []string{"a", "b", "run|lv", "run|lv|tweet", "trace|wiki"} {
		for _, base := range []int64{1, 2, 7} {
			s := DeriveSeed(base, key)
			if s <= 0 {
				t.Fatalf("seed for (%d, %q) = %d, want positive", base, key, s)
			}
			id := fmt.Sprintf("%d|%s", base, key)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

func TestAllPreservesInputOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func(int64) (int, error) {
				time.Sleep(time.Duration(32-i) * time.Millisecond / 8)
				return i * i, nil
			},
		}
	}
	out, err := All(e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestAllBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(Config{Workers: workers})
	var inflight, peak atomic.Int64
	jobs := make([]Job[int], 24)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func(int64) (int, error) {
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inflight.Add(-1)
				return 0, nil
			},
		}
	}
	if _, err := All(e, jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestDoSingleFlight(t *testing.T) {
	e := New(Config{Workers: 8})
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Do("shared", func(seed int64) (any, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return seed, nil
			})
			if err != nil || v.(int64) != DeriveSeed(1, "shared") {
				t.Errorf("Do returned (%v, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn executed %d times for one key, want 1", n)
	}
}

func TestProgressCallbacks(t *testing.T) {
	var mu sync.Mutex
	var seen []Progress
	e := New(Config{Workers: 4, OnProgress: func(p Progress) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
	}})
	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("j%d", i), Run: func(int64) (int, error) { return 0, nil }}
	}
	if _, err := All(e, jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d callbacks, want %d", len(seen), len(jobs))
	}
	for i, p := range seen {
		// Total counts unique artifacts discovered so far: it grows as
		// flights start, never below Done and never past the batch size.
		if p.Done != i+1 || p.Total < p.Done || p.Total > len(jobs) {
			t.Fatalf("callback %d: Done=%d Total=%d", i, p.Done, p.Total)
		}
	}
	if last := seen[len(seen)-1]; last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final callback Done=%d Total=%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
	// Re-submitting the same batch hits the cache everywhere: no new work,
	// so no further callbacks (a cache hit is not progress).
	if _, err := All(e, jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("cache hits reported as progress: %d callbacks after resubmit, want %d", len(seen), len(jobs))
	}
}

func TestTraceCachedAndSeededPerKind(t *testing.T) {
	e := New(Config{TraceDuration: 30 * time.Second})
	a, err := e.Trace(trace.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Trace(trace.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("trace not cached")
	}
	c, err := e.Trace(trace.Tweet)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct kinds share a trace")
	}
}

func TestRunCachedAndSeedPerSpec(t *testing.T) {
	e := New(Config{TraceDuration: 30 * time.Second})
	a, err := e.Run(Spec{App: "tm", Kind: trace.Wiki, Policy: "pard"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(Spec{App: "tm", Kind: trace.Wiki, Policy: "pard"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("run not cached")
	}
	// Distinct grid points must not share one RNG stream through the base
	// seed (the pre-sweep harness bug): their derived seeds must differ.
	k1 := Spec{App: "tm", Kind: trace.Wiki, Policy: "pard"}.Key()
	k2 := Spec{App: "tm", Kind: trace.Wiki, Policy: "nexus"}.Key()
	k3 := Spec{App: "lv", Kind: trace.Wiki, Policy: "pard"}.Key()
	if e.SeedFor("run|"+k1) == e.SeedFor("run|"+k2) || e.SeedFor("run|"+k1) == e.SeedFor("run|"+k3) {
		t.Fatal("distinct specs derived the same seed")
	}
}

func TestExplicitPipelinesKeyedByStructure(t *testing.T) {
	// Two pipeline overrides sharing an App name must not collide in the
	// cache (they are different simulations).
	a := Spec{Pipeline: pipeline.Uniform("u", 4, "facerec", 400*time.Millisecond), Policy: "naive"}
	b := Spec{Pipeline: pipeline.Uniform("u", 8, "facerec", 400*time.Millisecond), Policy: "naive"}
	if a.Key() == b.Key() {
		t.Fatalf("distinct pipelines share key %q", a.Key())
	}
	c := Spec{Pipeline: pipeline.Uniform("u", 4, "facerec", 400*time.Millisecond), Policy: "naive"}
	if a.Key() != c.Key() {
		t.Fatalf("equal pipelines keyed differently:\n%q\n%q", a.Key(), c.Key())
	}
}

func TestAllDuplicateKeysShareOneExecution(t *testing.T) {
	e := New(Config{Workers: 2})
	var calls atomic.Int64
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{Key: "shared", Run: func(int64) (int, error) {
			calls.Add(1)
			time.Sleep(5 * time.Millisecond)
			return 42, nil
		}}
	}
	out, err := All(e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("shared key executed %d times, want 1", n)
	}
	for i, v := range out {
		if v != 42 {
			t.Fatalf("out[%d] = %d, want 42", i, v)
		}
	}
}

func TestUnknownAppFailsDeterministically(t *testing.T) {
	e := New(Config{Workers: 4, TraceDuration: 30 * time.Second})
	_, err := e.Sweep([]Spec{
		{App: "tm", Kind: trace.Wiki, Policy: "pard"},
		{App: "bogus-1", Kind: trace.Wiki, Policy: "pard"},
		{App: "bogus-2", Kind: trace.Wiki, Policy: "pard"},
	})
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	// Since the first failure cancels the batch, which poisoned spec ran
	// first is scheduling-dependent — but the reported error is always a
	// real failure, never the cancellation it triggered.
	if !strings.HasPrefix(err.Error(), `sweep: unknown app "bogus-`) {
		t.Fatalf("err = %q, want an unknown-app failure", err)
	}
}

// summaries flattens a result list into a comparable string.
func summaries(t *testing.T, e *Engine, specs []Spec) string {
	t.Helper()
	results, err := e.Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for i, r := range results {
		out += fmt.Sprintf("%d: %+v\n", i, r.Summary)
	}
	return out
}

// TestParallelMatchesSequential is the determinism contract: the same grid
// at the same base seed produces byte-identical summaries whether it runs
// on one worker or many.
func TestParallelMatchesSequential(t *testing.T) {
	var specs []Spec
	for _, app := range []string{"tm", "lv"} {
		for _, kind := range []trace.Kind{trace.Wiki, trace.Tweet} {
			for _, pol := range []string{"pard", "nexus"} {
				specs = append(specs, Spec{App: app, Kind: kind, Policy: pol})
			}
		}
	}
	cfg := Config{BaseSeed: 7, TraceDuration: 30 * time.Second}
	cfg.Workers = 1
	seq := summaries(t, New(cfg), specs)
	cfg.Workers = 8
	par := summaries(t, New(cfg), specs)
	if seq != par {
		t.Fatalf("parallel sweep diverged from sequential:\n--- sequential\n%s--- parallel\n%s", seq, par)
	}
	// And a second parallel engine reproduces it again (no hidden
	// scheduling dependence).
	if again := summaries(t, New(cfg), specs); again != par {
		t.Fatal("parallel sweep not reproducible across engines")
	}
}

// TestPoisonedSpecStopsSweepEarly is the early-cancel contract: no job starts
// once a grid point has failed — the failing job cancels before it releases
// its worker slot. How many queued jobs get the slot before the poisoned one
// does is the goroutine scheduler's business (under load, most of them), so
// the test orders starts against the failure instead of counting them: with
// one worker slot the Run calls are serialized, and one counter stamps them.
func TestPoisonedSpecStopsSweepEarly(t *testing.T) {
	e := New(Config{Workers: 1})
	var clock atomic.Int64
	var failedAt int64
	boom := errors.New("poisoned")
	jobs := make([]Job[int], 41)
	started := make([]int64, len(jobs))
	jobs[0] = Job[int]{Key: "poison", Run: func(int64) (int, error) {
		failedAt = clock.Add(1)
		return 0, boom
	}}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = Job[int]{Key: fmt.Sprintf("queued-%d", i), Run: func(int64) (int, error) {
			started[i] = clock.Add(1)
			return 0, nil
		}}
	}
	if _, err := All(e, jobs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the poisoned spec's failure", err)
	}
	if failedAt == 0 {
		t.Fatal("the poisoned job never ran")
	}
	for i, at := range started {
		if at > failedAt {
			t.Fatalf("job %d started at tick %d, after the poisoned job failed at tick %d", i, at, failedAt)
		}
	}
}

// TestAllCtxCallerCancel: a canceled caller context skips every unstarted
// job and reports the cancellation when no job actually failed.
func TestAllCtxCallerCancel(t *testing.T) {
	e := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	jobs := make([]Job[int], 16)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("after-%d", i), Run: func(int64) (int, error) {
			ran.Add(1)
			return 0, nil
		}}
	}
	if _, err := AllCtx(ctx, e, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran under a canceled context, want 0", n)
	}
}

// TestLookupInstall exercises the cache injection seam remote coordinators
// merge results through.
func TestLookupInstall(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Workers: 1, TraceDuration: 30 * time.Second, CacheDir: dir})
	if err := e.DiskError(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{App: "tm", Kind: trace.Steady, Policy: "pard"}
	key := runPrefix + spec.Key()
	if _, ok := e.Lookup(spec); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	res, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Lookup(spec); !ok || v != res {
		t.Fatal("Lookup missed a finished run")
	}

	// Install into a fresh engine: the value must be visible to Lookup, to
	// Do (no recomputation), and — via the shared cache dir — to a third
	// engine straight from disk.
	e2 := New(Config{Workers: 1, TraceDuration: 30 * time.Second, CacheDir: t.TempDir()})
	e2.Install(key, res)
	if v, ok := e2.Lookup(spec); !ok || v != res {
		t.Fatal("Install not visible to Lookup")
	}
	var computed bool
	v2, err := e2.Do(key, func(int64) (any, error) { computed = true; return nil, nil })
	if err != nil || computed || v2.(*simgpu.Result) != res {
		t.Fatalf("Do recomputed an installed key (computed=%v, err=%v)", computed, err)
	}
	e3 := New(Config{Workers: 1, TraceDuration: 30 * time.Second, CacheDir: e2.Config().CacheDir})
	if _, ok := e3.Lookup(spec); !ok {
		t.Fatal("installed value did not reach the shared disk cache")
	}

	// An existing entry wins over a later install.
	e2.Install(key, "bogus")
	if v, _ := e2.Lookup(spec); v != res {
		t.Fatal("Install overwrote an existing entry")
	}
}

// recordingDistributor captures the grid Sweep delegates.
type recordingDistributor struct {
	specs []Spec
}

func (d *recordingDistributor) Sweep(_ context.Context, specs []Spec) ([]*simgpu.Result, error) {
	d.specs = append([]Spec(nil), specs...)
	return make([]*simgpu.Result, len(specs)), nil
}

func TestSweepDelegatesToDistributor(t *testing.T) {
	e := New(Config{Workers: 1, TraceDuration: 30 * time.Second})
	d := &recordingDistributor{}
	e.SetDistributor(d)
	specs := []Spec{{App: "bogus-but-never-run", Kind: trace.Wiki, Policy: "pard"}}
	if _, err := e.Sweep(specs); err != nil {
		t.Fatal(err)
	}
	if len(d.specs) != 1 || d.specs[0].App != "bogus-but-never-run" {
		t.Fatalf("distributor saw %+v", d.specs)
	}
	// Clearing the distributor restores local execution.
	e.SetDistributor(nil)
	if _, err := e.Sweep(specs); err == nil {
		t.Fatal("local sweep of a bogus app succeeded")
	}
}

// TestConcurrentFailuresReportLowestIndex pins deterministic failure
// reporting: when several grid points fail in one sweep, the reported error
// is always the failure with the lowest input index — never whichever
// failing job's pool worker happened to finish first.
func TestConcurrentFailuresReportLowestIndex(t *testing.T) {
	errLow := errors.New("low-index failure")
	errHigh := errors.New("high-index failure")

	// Both failures in flight at once: a barrier holds each failing job
	// until the other has started, so neither is skipped by the other's
	// cancellation and completion order is pure scheduling noise.
	t.Run("simultaneous", func(t *testing.T) {
		for rep := 0; rep < 30; rep++ {
			e := New(Config{Workers: 3})
			var started sync.WaitGroup
			started.Add(2)
			fail := func(err error) func(int64) (int, error) {
				return func(int64) (int, error) {
					started.Done()
					started.Wait()
					return 0, err
				}
			}
			jobs := []Job[int]{
				{Key: fmt.Sprintf("sim-low-%d", rep), Run: fail(errLow)},
				{Key: fmt.Sprintf("sim-ok-%d", rep), Run: func(int64) (int, error) { return 1, nil }},
				{Key: fmt.Sprintf("sim-high-%d", rep), Run: fail(errHigh)},
			}
			if _, err := All(e, jobs); !errors.Is(err, errLow) {
				t.Fatalf("rep %d: err = %v, want the lowest-index failure", rep, err)
			}
		}
	})

	// The low-index job fails strictly AFTER the high-index failure has
	// already fired the batch cancellation: in-flight jobs are not
	// preemptible, so its real failure must still win the report.
	t.Run("low-index-fails-last", func(t *testing.T) {
		e := New(Config{Workers: 2})
		lowStarted := make(chan struct{})
		highFailed := make(chan struct{})
		jobs := []Job[int]{
			{Key: "late-low", Run: func(int64) (int, error) {
				close(lowStarted)
				<-highFailed
				time.Sleep(5 * time.Millisecond) // let the cancellation land first
				return 0, errLow
			}},
			{Key: "late-high", Run: func(int64) (int, error) {
				<-lowStarted // guarantee the low-index job is in flight
				defer close(highFailed)
				return 0, errHigh
			}},
		}
		if _, err := All(e, jobs); !errors.Is(err, errLow) {
			t.Fatalf("err = %v, want the lowest-index failure", err)
		}
	})
}
