package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// The distributed differential harness enforces the repo's fourth
// determinism invariant (after parallel≡sequential sweeps, virtual≡wall
// clock parity, and shard-count invariance): a sweep run through the
// coordinator/worker protocol is GOB BYTE-IDENTICAL to sweep.Engine.Sweep
// on the same grid — for 1, 2 and 4 loopback workers, and with a worker
// crash injected mid-sweep that forces unit reassignment. Workers run over
// net.Pipe in-process, exactly the code path TCP deployments run minus the
// socket.

// diffGrid is the corpus: every app shape in the comparison set, bursty and
// smooth traces, two policy families, plus a DAG, option transport
// (steady-rate override) and a duplicate spec (dedupe must hand both inputs
// one unit).
func diffGrid() []sweep.Spec {
	var specs []sweep.Spec
	for _, app := range []string{"tm", "lv"} {
		for _, kind := range []trace.Kind{trace.Wiki, trace.Tweet} {
			for _, pol := range []string{"pard", "nexus"} {
				specs = append(specs, sweep.Spec{App: app, Kind: kind, Policy: pol})
			}
		}
	}
	specs = append(specs,
		sweep.Spec{App: "da", Kind: trace.Tweet, Policy: "pard"},
		sweep.Spec{App: "gm", Kind: trace.Steady, Policy: "pard", Opts: sweep.RunOpts{SteadyRate: 60}},
		specs[0],
	)
	return specs
}

// diffEngineConfig is the shared engine parameterization; every engine in
// the harness (local baseline, coordinator, each worker via handshake) must
// agree on BaseSeed and TraceDuration for byte-identity to hold.
func diffEngineConfig() sweep.Config {
	return sweep.Config{Workers: 4, BaseSeed: 7, TraceDuration: 20 * time.Second}
}

// encodeResults flattens results to comparison bytes.
func encodeResults(t *testing.T, rs []*simgpu.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startLoopbackWorker wires a worker to c over net.Pipe and returns a
// channel carrying ServeConn's exit error.
func startLoopbackWorker(t *testing.T, c *Coordinator, cfg WorkerConfig) <-chan error {
	t.Helper()
	coordSide, workerSide := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(workerSide, cfg) }()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	return done
}

// listenOn runs c.Listen(l) and returns once the listener is registered: from
// then on a sweep over an empty cluster waits for workers to join.
func listenOn(t *testing.T, c *Coordinator, l net.Listener) {
	t.Helper()
	go c.Listen(l)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := len(c.listeners)
		c.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the listener was never registered")
		}
	}
}

// listenLoopback makes c listen on a free loopback port and returns its
// address.
func listenLoopback(t *testing.T, c *Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listenOn(t, c, l)
	return l.Addr().String()
}

// diffFailure renders a per-index summary diff for debuggability.
func diffFailure(t *testing.T, name string, local, distributed []*simgpu.Result) {
	t.Helper()
	for i := range local {
		l := fmt.Sprintf("%+v", local[i].Summary)
		d := fmt.Sprintf("%+v", distributed[i].Summary)
		if l != d {
			t.Errorf("%s: spec %d summaries differ\n local: %s\n dist:  %s", name, i, l, d)
		}
	}
	t.Fatalf("%s: distributed sweep not byte-identical to local run", name)
}

func TestDistributedDifferential(t *testing.T) {
	grid := diffGrid()
	local := sweep.New(diffEngineConfig())
	baseline, err := local.Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResults(t, baseline)

	// -short trims to one worker count plus the crash case (the CI race-
	// short passes run this test through ./...); the dedicated CI
	// differential step runs the full 1/2/4 matrix without -short.
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		workerCounts = []int{2}
	}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{Engine: sweep.New(diffEngineConfig())})
			defer c.Close()
			for i := 0; i < workers; i++ {
				startLoopbackWorker(t, c, WorkerConfig{Workers: 2})
			}
			got, err := c.Sweep(context.Background(), grid)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Dispatched == 0 || st.Requeued != 0 || st.WorkersLost != 0 ||
				st.Dispatched-st.Duplicated != st.Completed {
				t.Fatalf("unexpected dispatch stats: %+v", st)
			}
			if !bytes.Equal(encodeResults(t, got), want) {
				diffFailure(t, fmt.Sprintf("workers=%d", workers), baseline, got)
			}
		})
	}

	// Fault injection: one of three workers dies abruptly after its first
	// result, with more units outstanding (its capacity exceeds one). The
	// coordinator must reassign those units to the survivors and the merged
	// grid must still be byte-identical to the local run.
	t.Run("crash-mid-sweep", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Engine: sweep.New(diffEngineConfig())})
		defer c.Close()
		// Every unit is held for 50 ms before it runs: a unit of this grid
		// simulates in a few milliseconds, and on a loaded box the survivors
		// could otherwise drain the queue before the crashing worker had
		// pulled its second unit, leaving it nothing to lose.
		const hold = 50 * time.Millisecond
		crashed := startLoopbackWorker(t, c, WorkerConfig{Workers: 4, crashAfterUnits: 1, unitDelay: hold})
		startLoopbackWorker(t, c, WorkerConfig{Workers: 2, unitDelay: hold})
		startLoopbackWorker(t, c, WorkerConfig{Workers: 2, unitDelay: hold})
		got, err := c.Sweep(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case werr := <-crashed:
			if !errors.Is(werr, errInjectedCrash) {
				t.Fatalf("crashing worker exited with %v, want injected crash", werr)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("crashing worker never exited")
		}
		st := c.Stats()
		if st.WorkersLost != 1 {
			t.Fatalf("WorkersLost = %d, want 1 (stats %+v)", st.WorkersLost, st)
		}
		if st.Requeued == 0 {
			t.Fatalf("crash reassigned no units (stats %+v); the fault was not injected mid-sweep", st)
		}
		if !bytes.Equal(encodeResults(t, got), want) {
			diffFailure(t, "crash-mid-sweep", baseline, got)
		}
	})

	// Worker-side warm cache: after one sweep through a caching worker, a
	// COLD coordinator re-resolves the whole grid by dispatching every unit
	// to workers that all serve from the shared cache dir — zero executed
	// units cluster-wide, proven by the hit counters, at every cluster size.
	t.Run("worker-warm-cache", func(t *testing.T) {
		if testing.Short() {
			t.Skip("skipped in -short (full CI differential step covers it)")
		}
		cacheDir := t.TempDir()
		warm := NewCoordinator(CoordinatorConfig{Engine: sweep.New(diffEngineConfig())})
		startLoopbackWorker(t, warm, WorkerConfig{Workers: 4, CacheDir: cacheDir})
		if _, err := warm.Sweep(context.Background(), grid); err != nil {
			t.Fatal(err)
		}
		warm.Close()
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				c := NewCoordinator(CoordinatorConfig{Engine: sweep.New(diffEngineConfig())})
				defer c.Close()
				for i := 0; i < workers; i++ {
					startLoopbackWorker(t, c, WorkerConfig{Workers: 2, CacheDir: cacheDir})
				}
				got, err := c.Sweep(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				st := c.Stats()
				if st.Dispatched == 0 || st.Completed != st.Dispatched-st.Duplicated || st.RemoteHits != st.Completed {
					t.Fatalf("warm workers executed units (want every dispatch a remote hit): %+v", st)
				}
				if st.LocalHits != 0 {
					t.Fatalf("cold coordinator reported local hits: %+v", st)
				}
				perWorkerHits := 0
				for _, ws := range st.PerWorker {
					perWorkerHits += ws.CacheHits
				}
				if perWorkerHits != st.RemoteHits {
					t.Fatalf("per-worker hit counters (%d) disagree with RemoteHits (%d)", perWorkerHits, st.RemoteHits)
				}
				if !bytes.Equal(encodeResults(t, got), want) {
					diffFailure(t, fmt.Sprintf("worker-warm-cache/workers=%d", workers), baseline, got)
				}
			})
		}
	})

	// Warm restart: a second coordinator sharing the first engine's cache
	// resolves the whole grid without dispatching a single unit — the
	// "never recomputed anywhere in the cluster" half of the contract.
	t.Run("warm-cache-no-dispatch", func(t *testing.T) {
		if testing.Short() {
			t.Skip("skipped in -short (full CI differential step covers it)")
		}
		eng := sweep.New(diffEngineConfig())
		c := NewCoordinator(CoordinatorConfig{Engine: eng})
		defer c.Close()
		startLoopbackWorker(t, c, WorkerConfig{Workers: 2})
		if _, err := c.Sweep(context.Background(), grid); err != nil {
			t.Fatal(err)
		}
		first := c.Stats().Dispatched
		got, err := c.Sweep(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if again := c.Stats().Dispatched; again != first {
			t.Fatalf("warm sweep dispatched %d new units, want 0", again-first)
		}
		if hits := c.Stats().LocalHits; hits == 0 {
			t.Fatalf("warm sweep reported no local hits: %+v", c.Stats())
		}
		if !bytes.Equal(encodeResults(t, got), want) {
			diffFailure(t, "warm-cache-no-dispatch", baseline, got)
		}
	})
}

// TestEndgameDifferential injects a straggler — a worker that stalls every
// execution for 20 s — and proves the endgame rule finishes the grid around
// it in a fraction of that, gob byte-identical to the local run: once nothing
// is pending, an idle worker gets a copy of the stuck unit, the first valid
// result wins, and the straggler's late result is dropped. Runs in -short too
// (the CI endgame step), at 2 and 4 workers.
func TestEndgameDifferential(t *testing.T) {
	grid := diffGrid()
	local := sweep.New(diffEngineConfig())
	baseline, err := local.Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResults(t, baseline)

	const delay = 20 * time.Second
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{Engine: sweep.New(diffEngineConfig()), Logf: t.Logf})
			defer c.Close()
			// The straggler joins first so its dispatch loop is running
			// before the sweep starts; capacity 1 wedges exactly one unit.
			startLoopbackWorker(t, c, WorkerConfig{Workers: 1, unitDelay: delay})
			for i := 1; i < workers; i++ {
				startLoopbackWorker(t, c, WorkerConfig{Workers: 2})
			}
			start := time.Now()
			got, err := c.Sweep(context.Background(), grid)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > delay/4 {
				t.Fatalf("sweep took %v: it waited on the straggler", elapsed)
			}
			st := c.Stats()
			if st.Duplicated == 0 {
				t.Fatalf("the straggler's unit was never copied: %+v", st)
			}
			if st.WorkersLost != 0 || st.Requeued != 0 {
				t.Fatalf("endgame copies must not be accounted as worker loss: %+v", st)
			}
			if st.Dispatched-st.Duplicated != st.Completed {
				t.Fatalf("Dispatched − Duplicated = %d, want Completed = %d: %+v", st.Dispatched-st.Duplicated, st.Completed, st)
			}
			if !bytes.Equal(encodeResults(t, got), want) {
				diffFailure(t, fmt.Sprintf("endgame/workers=%d", workers), baseline, got)
			}
		})
	}
}
