package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// testEngine returns a small engine for protocol-level tests.
func testEngine() *sweep.Engine {
	return sweep.New(sweep.Config{Workers: 2, BaseSeed: 3, TraceDuration: 10 * time.Second})
}

// tinyGrid is a 2-unit grid cheap enough for protocol tests.
func tinyGrid() []sweep.Spec {
	return []sweep.Spec{
		{App: "tm", Kind: trace.Steady, Policy: "pard"},
		{App: "tm", Kind: trace.Steady, Policy: "naive"},
	}
}

func TestNoWorkersFailsFast(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	_, err := c.Sweep(context.Background(), tinyGrid())
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("err = %v, want a no-workers failure", err)
	}
}

// TestLateJoinerCompletesSweep: on a coordinator that listens, a sweep
// started against an empty cluster blocks, then completes once a worker
// joins through the listener — the listen-mode deployment shape.
func TestLateJoinerCompletesSweep(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	addr := listenLoopback(t, c)
	type outcome struct {
		n   int
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := c.Sweep(context.Background(), tinyGrid())
		done <- outcome{len(rs), err}
	}()
	time.Sleep(20 * time.Millisecond) // let the sweep block on the empty cluster
	go Join(addr, WorkerConfig{Workers: 1})
	select {
	case o := <-done:
		if o.err != nil || o.n != 2 {
			t.Fatalf("sweep returned (%d results, %v)", o.n, o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never completed after the worker joined")
	}
}

// TestSweepCtxCancelUnblocks: canceling the context releases a sweep stuck
// waiting for workers that never come.
func TestSweepCtxCancelUnblocks(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	listenLoopback(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Sweep(ctx, tinyGrid())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestPoisonedSpecAbortsDistributedSweep: a unit failing on a worker aborts
// the sweep with that unit's error, mirroring the engine's early-cancel.
func TestPoisonedSpecAbortsDistributedSweep(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
	specs := append(tinyGrid(), sweep.Spec{App: "bogus", Kind: trace.Steady, Policy: "pard"})
	_, err := c.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), `unknown app "bogus"`) {
		t.Fatalf("err = %v, want the poisoned unit's failure", err)
	}
	// The cluster survives the failed sweep: a clean grid still resolves.
	if _, err := c.Sweep(context.Background(), tinyGrid()); err != nil {
		t.Fatalf("sweep after failure: %v", err)
	}
}

// TestKeyCrossCheckRejectsSkew speaks the protocol by hand and sends units
// whose key does not match their spec — the worker must refuse to run them
// (version-skew guard) rather than compute under the wrong key. The keys are
// what a peer that still had a removed option sends: a sharded run (|sh=) or
// an in-process lane-group run (|topo=). gob drops the unknown Shards or
// Groups field on decode; the marker stays in the key.
func TestKeyCrossCheckRejectsSkew(t *testing.T) {
	for _, marker := range []string{"|sh=2", "|topo=2"} {
		t.Run(strings.TrimPrefix(marker, "|"), func(t *testing.T) {
			coordSide, workerSide := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1}) }()
			f := newFramed(coordSide)
			hello := Hello{Proto: ProtoVersion, BaseSeed: 3, TraceDuration: 10 * time.Second,
				LibraryFP: profile.DefaultLibrary().Fingerprint()}
			if err := sendHello(f, hello); err != nil {
				t.Fatal(err)
			}
			if _, err := recvAck(f, 0); err != nil {
				t.Fatal(err)
			}
			spec := sweep.Spec{App: "tm", Kind: trace.Steady, Policy: "pard"}
			if err := sendUnit(f, WorkUnit{Epoch: 1, ID: 0, Key: "run|" + spec.Key() + marker, Spec: spec}); err != nil {
				t.Fatal(err)
			}
			var r UnitResult
			if err := recvResult(f, &r, 0); err != nil {
				t.Fatal(err)
			}
			if r.ID != 0 || r.Result != nil || !strings.Contains(r.Err, "key mismatch") {
				t.Fatalf("tampered unit produced %+v, want a key-mismatch refusal", r)
			}
			coordSide.Close()
			if err := <-done; err != nil {
				t.Fatalf("worker exited with %v after clean close", err)
			}
		})
	}
}

// TestWorkerCapacityBoundsReadLoop: the capacity a worker advertises bounds
// the worker, whatever the coordinator does. With one slot, unit A runs, unit B
// is read and waits for the slot, and unit C stays in the socket — its send
// blocks — until A's result has left; a coordinator that ignores the capacity
// cannot park decoded units in this process.
func TestWorkerCapacityBoundsReadLoop(t *testing.T) {
	coordSide, workerSide := net.Pipe()
	defer coordSide.Close()
	done := make(chan error, 1)
	go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1, unitDelay: 500 * time.Millisecond}) }()
	f, capacity, err := openSession(coordSide, 5*time.Second, Hello{
		LibraryFP: profile.DefaultLibrary().Fingerprint(), BaseSeed: 3, TraceDuration: 10 * time.Second,
	})
	if err != nil || capacity != 1 {
		t.Fatalf("handshake: capacity %d, err %v", capacity, err)
	}
	unit := func(id int, policy string) WorkUnit {
		spec := sweep.Spec{App: "tm", Kind: trace.Steady, Policy: policy}
		return WorkUnit{Epoch: 1, ID: id, Key: "run|" + spec.Key(), Spec: spec}
	}
	for id, policy := range []string{"pard", "naive"} {
		coordSide.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := sendUnit(f, unit(id, policy)); err != nil {
			t.Fatalf("unit %d was not accepted: %v", id, err)
		}
	}
	coordSide.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	if err := sendUnit(f, unit(2, "nexus")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a third unit was read while the one slot was taken and one unit waited for it (send error: %v)", err)
	}
	var r UnitResult
	if err := recvResult(f, &r, 10*time.Second); err != nil || r.ID != 0 || r.Err != "" {
		t.Fatalf("first result: %+v, %v", r, err)
	}
	coordSide.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := sendUnit(f, unit(2, "nexus")); err != nil {
		t.Fatalf("the third unit was still refused after a slot came free: %v", err)
	}
	for _, id := range []int{1, 2} {
		if err := recvResult(f, &r, 10*time.Second); err != nil || r.ID != id || r.Err != "" {
			t.Fatalf("result %d: %+v, %v", id, r, err)
		}
	}
	coordSide.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exited with %v after clean close", err)
	}
}

// peerName names a refusal subtest after the peer's protocol version; the
// version after this one is "future", so the name survives the next bump.
func peerName(proto int) string {
	if proto > ProtoVersion {
		return "future"
	}
	return fmt.Sprintf("v%d", proto)
}

// TestVersionMismatchRefused: both sides refuse a peer speaking another
// protocol version — a future one, v8, whose sweep results carried a
// collector of another layout, v7 and v6, whose binary handshakes carried a
// job of another layout, and v5, v4 and v3, whose handshakes are gob — and
// neither side hangs doing so. A gob peer cannot read this side's hello or
// ack either: as a worker it hangs up, as a coordinator it fails to decode
// the refusal.
func TestVersionMismatchRefused(t *testing.T) {
	for _, peer := range []int{ProtoVersion + 1, 9, 8, 7, 6, 5, 4, 3} {
		t.Run("worker-side/"+peerName(peer), func(t *testing.T) {
			coordSide, workerSide := net.Pipe()
			defer coordSide.Close()
			done := make(chan error, 1)
			go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1}) }()
			f := newFramed(coordSide)
			if err := peerHello(f, Hello{Proto: peer}); err != nil {
				t.Fatal(err)
			}
			// The worker still acks (net.Pipe is synchronous, so the refusal
			// ack must be consumed) but then refuses to serve.
			checkRefusalAck(t, f, peer, "version mismatch")
			if err := within(t, "the worker", done); err == nil || !strings.Contains(err.Error(), "version mismatch") {
				t.Fatalf("worker accepted protocol %d: %v", peer, err)
			}
		})
		t.Run("coordinator-side/"+peerName(peer), func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), handshakeTimeout: 5 * time.Second})
			defer c.Close()
			coordSide, fakeWorker := net.Pipe()
			defer fakeWorker.Close()
			go peerServer(fakeWorker, peer, 5*time.Second)
			want := "version mismatch"
			if peer <= lastGobProto {
				want = "handshake: EOF" // the gob worker hung up on a hello it could not read
			}
			if err := c.AddConn(coordSide); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("coordinator joined a protocol %d worker: %v, want %q", peer, err, want)
			}
		})
	}
}

// TestStaleEpochResultDropped: a result frame carrying a stale epoch (or an
// unassigned unit) must be ignored, not merged.
func TestStaleEpochResultDropped(t *testing.T) {
	eng := testEngine()
	c := NewCoordinator(CoordinatorConfig{Engine: eng})
	defer c.Close()
	coordSide, fakeWorker := net.Pipe()
	f := newFramed(fakeWorker)
	var handshake sync.WaitGroup
	handshake.Add(1)
	go func() {
		defer handshake.Done()
		h, err := recvHello(f, 0)
		if err != nil {
			return
		}
		sendAck(f, HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP})
	}()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	handshake.Wait()
	// Inject a garbage result before any sweep: no state may change.
	if err := sendResult(f, UnitResult{Epoch: 99, ID: 0, Key: "run|bogus"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := c.Stats(); st.Completed != 0 {
		t.Fatalf("stale result was merged: %+v", st)
	}
	if _, ok := eng.Lookup(tinyGrid()[0]); ok {
		t.Fatal("stale result reached the cache")
	}
}

// TestLibraryMismatchRefused: a worker simulating different latency curves
// would pass the key cross-check (profiles don't travel in keys) yet
// produce divergent results — both sides must refuse at the handshake.
func TestLibraryMismatchRefused(t *testing.T) {
	scaled, err := profile.DefaultLibrary().Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Fingerprint() == profile.DefaultLibrary().Fingerprint() {
		t.Fatal("scaled library fingerprints like the default")
	}
	c := NewCoordinator(CoordinatorConfig{Engine: sweep.New(sweep.Config{
		Workers: 1, BaseSeed: 3, TraceDuration: 10 * time.Second, Library: scaled,
	})})
	defer c.Close()
	coordSide, workerSide := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1}) }()
	if err := c.AddConn(coordSide); err == nil || !strings.Contains(err.Error(), "library mismatch") {
		t.Fatalf("coordinator accepted a worker with different profiles: %v", err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "library mismatch") {
		t.Fatalf("worker served a coordinator with different profiles: %v", err)
	}
	// A coordinator on the default library, the one every worker runs, is
	// accepted.
	c2 := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c2.Close()
	cs2, ws2 := net.Pipe()
	go ServeConn(ws2, WorkerConfig{Workers: 1})
	if err := c2.AddConn(cs2); err != nil {
		t.Fatalf("matching libraries refused: %v", err)
	}
}

// TestEchoedKeyMismatchFailsUnit: a worker echoing a different key than the
// assignment computed under a different seed; the coordinator must fail the
// unit instead of merging the result.
func TestEchoedKeyMismatchFailsUnit(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	coordSide, fakeWorker := net.Pipe()
	go func() {
		f := newFramed(fakeWorker)
		h, err := recvHello(f, 0)
		if err != nil || sendAck(f, HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
			return
		}
		var u WorkUnit
		if recvUnit(f, &u, 0) != nil {
			return
		}
		sendResult(f, UnitResult{Epoch: u.Epoch, ID: u.ID, Key: "run|tampered", Result: stubResult(tinyGrid()[0], 0)})
	}()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	_, err := c.Sweep(context.Background(), tinyGrid()[:1])
	if err == nil || !strings.Contains(err.Error(), "echoed key") {
		t.Fatalf("err = %v, want an echoed-key integrity failure", err)
	}
	if _, ok := c.cfg.Engine.Lookup(tinyGrid()[0]); ok {
		t.Fatal("tampered result reached the cache")
	}
}

// TestHostileCollectorIsSessionError: a worker's result whose collector no
// run produces — no modules, or a non-positive SLO — reaches the
// coordinator's result decoder. It must end that worker's session with the
// decoder's error, never panic the coordinator, and merge nothing.
func TestHostileCollectorIsSessionError(t *testing.T) {
	for name, col := range map[string]*metrics.Collector{
		"no modules": {SLO: time.Second, NModules: 0},
		"zero SLO":   {SLO: 0, NModules: 1},
	} {
		var logMu sync.Mutex
		var logs []string
		lost := func() string {
			logMu.Lock()
			defer logMu.Unlock()
			return strings.Join(logs, "\n")
		}
		c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})
		coordSide, fakeWorker := net.Pipe()
		go func() {
			f := newFramed(fakeWorker)
			h, err := recvHello(f, 0)
			if err != nil || sendAck(f, HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
				return
			}
			var u WorkUnit
			if recvUnit(f, &u, 0) != nil {
				return
			}
			sendResult(f, UnitResult{Epoch: u.Epoch, ID: u.ID, Key: u.Key, Result: &simgpu.Result{Collector: col}})
		}()
		if err := c.AddConn(coordSide); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sweep(context.Background(), tinyGrid()[:1]); err == nil {
			t.Fatalf("%s: the sweep succeeded on a hostile result", name)
		}
		// The sweep fails once the worker is gone; the drop is logged last.
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(lost(), "lost worker") && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		c.Close()
		if !strings.Contains(lost(), "lost worker") || !strings.Contains(lost(), "metrics: collector:") {
			t.Fatalf("%s: the worker was not dropped for its result's collector:\n%s", name, lost())
		}
		if st := c.Stats(); st.Completed != 0 || st.WorkersLost != 1 {
			t.Fatalf("%s: stats %+v, want nothing completed and the worker lost", name, st)
		}
		if _, ok := c.cfg.Engine.Lookup(tinyGrid()[0]); ok {
			t.Fatalf("%s: hostile result reached the cache", name)
		}
	}
}

// stubResult is a result that fits a unit of s, whose probes it leaves off,
// with extra modules more than s's pipeline has, without running anything.
func stubResult(s sweep.Spec, extra int) *simgpu.Result {
	spec, ok := pipeline.App(s.App)
	if !ok {
		panic("stubResult: unknown app " + s.App)
	}
	n := spec.N() + extra
	return &simgpu.Result{
		Collector:     metrics.NewCollector(spec.SLO, n),
		TargetBatches: make([]int, n),
		ProfiledDurs:  make([]time.Duration, n),
		PeakWorkers:   make([]int, n),
	}
}

// TestMisfitResultFailsUnit: the coordinator checks a worker's result
// against its unit before merging it. A well-formed result with another
// module count, or without the probe series its unit enables, was once
// merged, and the experiment indexing its per-module slices panicked
// pard-bench. It now fails the unit with an error naming the worker, and
// reaches no cache. A result with no collector cannot be encoded at all; it
// is refused as well.
func TestMisfitResultFailsUnit(t *testing.T) {
	plain := tinyGrid()[0]
	probed := plain
	probed.Opts.Probes.Budget = true
	for name, tc := range map[string]struct {
		spec sweep.Spec
		res  *simgpu.Result
		want string
	}{
		"module count":        {plain, stubResult(plain, 1), "modules for a pipeline of"},
		"probe series absent": {probed, stubResult(probed, 0), "consumed-budget series"},
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
			defer c.Close()
			coordSide, fakeWorker := net.Pipe()
			defer fakeWorker.Close()
			go func() {
				f := newFramed(fakeWorker)
				h, err := recvHello(f, 0)
				if err != nil || sendAck(f, HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
					return
				}
				var u WorkUnit
				if recvUnit(f, &u, 0) != nil {
					return
				}
				sendResult(f, UnitResult{Epoch: u.Epoch, ID: u.ID, Key: u.Key, Result: tc.res})
			}()
			if err := c.AddConn(coordSide); err != nil {
				t.Fatal(err)
			}
			_, err := c.Sweep(context.Background(), []sweep.Spec{tc.spec})
			if err == nil || !strings.Contains(err.Error(), "worker 1 sent a result that does not fit the unit") ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a unit failure naming worker 1 and %q", err, tc.want)
			}
			if _, ok := c.cfg.Engine.Lookup(tc.spec); ok {
				t.Fatal("the misfit result reached the cache")
			}
			if st := c.Stats(); st.WorkersLost != 0 {
				t.Fatalf("a well-formed frame cost the worker its session: %+v", st)
			}
		})
	}
	u := WorkUnit{Key: "run|" + plain.Key(), Spec: plain}
	if why := refusal(7, u, UnitResult{Key: u.Key, Result: &simgpu.Result{}}); !strings.Contains(why, "worker 7") || !strings.Contains(why, "no collector") {
		t.Fatalf("a result with no collector is refused with %q", why)
	}
}

// TestAddConnAfterClose: a closed coordinator refuses new workers.
func TestAddConnAfterClose(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	c.Close()
	coordSide, _ := net.Pipe()
	if err := c.AddConn(coordSide); err == nil {
		t.Fatal("closed coordinator accepted a worker")
	}
}

// TestDistributedSweepOverTCP runs coordinator and worker over real
// sockets — the exact production transport — for one small grid.
func TestDistributedSweepOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, WorkerConfig{Workers: 2})

	eng := testEngine()
	c := NewCoordinator(CoordinatorConfig{Engine: eng})
	defer c.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConn(conn); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Sweep(context.Background(), tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.New(sweep.Config{Workers: 2, BaseSeed: 3, TraceDuration: 10 * time.Second}).Sweep(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		a := fmt.Sprintf("%+v", rs[i].Summary)
		b := fmt.Sprintf("%+v", local[i].Summary)
		if a != b {
			t.Fatalf("TCP sweep diverged at %d:\n dist:  %s\n local: %s", i, a, b)
		}
	}
}

// TestEngineSweepRoutesThroughCoordinator: the sweep.Distributor seam —
// Engine.Sweep with a coordinator installed distributes, and its results
// land in the engine's own cache.
func TestEngineSweepRoutesThroughCoordinator(t *testing.T) {
	eng := testEngine()
	c := NewCoordinator(CoordinatorConfig{Engine: eng})
	defer c.Close()
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
	eng.SetDistributor(c)
	rs, err := eng.Sweep(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0] == nil || rs[1] == nil {
		t.Fatalf("distributed engine sweep returned %v", rs)
	}
	if c.Stats().Dispatched == 0 {
		t.Fatal("Engine.Sweep did not route through the coordinator")
	}
	// The remote results are merged into the engine cache: a direct Run of
	// the same spec is a pure cache hit (pointer-equal result).
	r, err := eng.Run(tinyGrid()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r != rs[0] {
		t.Fatal("remote result not merged into the engine cache")
	}
}

// TestStatsAccounting pins the coordinator's counters across the three ways
// a unit resolves: remote execution, a coordinator-cache hit (no dispatch),
// and a warm worker-cache hit (dispatched, not executed).
func TestStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1, CacheDir: dir})
	grid := tinyGrid()
	if _, err := c.Sweep(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Dispatched != 2 || st.Completed != 2 || st.LocalHits != 0 ||
		st.RemoteHits != 0 || st.Duplicated != 0 || st.Requeued != 0 {
		t.Fatalf("cold sweep stats: %+v", st)
	}
	if ws := st.PerWorker[1]; ws.Completed != 2 || ws.CacheHits != 0 {
		t.Fatalf("cold sweep per-worker stats: %+v", st.PerWorker)
	}

	// Same grid again: the coordinator's own cache short-circuits dispatch.
	if _, err := c.Sweep(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Dispatched != 2 || st.LocalHits != 2 {
		t.Fatalf("warm-coordinator sweep stats: %+v", st)
	}

	// A fresh coordinator with a cold engine but the same worker cache dir:
	// every unit is dispatched again, and every one reports a worker hit.
	c2 := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c2.Close()
	startLoopbackWorker(t, c2, WorkerConfig{Workers: 1, CacheDir: dir})
	if _, err := c2.Sweep(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	st2 := c2.Stats()
	if st2.Dispatched != 2 || st2.Completed != 2 || st2.RemoteHits != 2 || st2.LocalHits != 0 {
		t.Fatalf("warm-worker sweep stats: %+v", st2)
	}
	if ws := st2.PerWorker[1]; ws.Completed != 2 || ws.CacheHits != 2 {
		t.Fatalf("warm-worker per-worker stats: %+v", st2.PerWorker)
	}
}

// TestStatsAccountingUnderEndgame: a wedged worker's unit gets an endgame
// copy on the idle one; the winning copy is counted once and the loser is
// dropped — Completed never exceeds the number of units, and every dispatch
// beyond one per unit is counted as a duplicate.
func TestStatsAccountingUnderEndgame(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1, unitDelay: 20 * time.Second})
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
	rs, err := c.Sweep(context.Background(), tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0] == nil || rs[1] == nil {
		t.Fatalf("sweep returned %v", rs)
	}
	st := c.Stats()
	if st.Duplicated == 0 {
		t.Fatalf("wedged worker's unit was never copied: %+v", st)
	}
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (duplicates must not be counted): %+v", st.Completed, st)
	}
	if st.Dispatched-st.Duplicated != st.Completed {
		t.Fatalf("Dispatched − Duplicated = %d, want Completed = %d: %+v", st.Dispatched-st.Duplicated, st.Completed, st)
	}
	if st.Requeued != 0 || st.WorkersLost != 0 {
		t.Fatalf("endgame copy accounted as loss: %+v", st)
	}
}

// handDrivenWorker connects a worker the test speaks for: it performs the
// handshake with capacity 1, hands the first unit it is assigned to the test
// and then reads nothing more. It answers only if the test sends a result on
// the returned stream; left alone it is a worker gone silent with the
// connection still open.
func handDrivenWorker(t *testing.T, c *Coordinator) (*framed, <-chan WorkUnit) {
	t.Helper()
	coordSide, workerSide := net.Pipe()
	f := newFramed(workerSide)
	units := make(chan WorkUnit, 1)
	go func() {
		h, err := recvHello(f, 0)
		if err != nil || sendAck(f, HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
			return
		}
		var u WorkUnit
		if recvUnit(f, &u, 0) != nil {
			return
		}
		units <- u
	}()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	return f, units
}

// heldSlots counts the assignments the coordinator's live workers hold.
func heldSlots(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		n += len(w.outstanding)
	}
	return n
}

// TestLateDuplicateAfterFailureDropped: with an endgame copy out, a unit can
// resolve as a failure while its other copy is still running. The sweep
// returns on the failure without waiting for that copy, and the copy's later
// success must be dropped — not merged into the cache, not double-counted,
// OnUnitDone's Done never above Total — while still freeing its slot.
func TestLateDuplicateAfterFailureDropped(t *testing.T) {
	type call struct{ done, total int }
	var mu sync.Mutex
	var calls []call
	c := NewCoordinator(CoordinatorConfig{
		Engine: testEngine(),
		OnUnitDone: func(u UnitDone) {
			mu.Lock()
			calls = append(calls, call{u.Done, u.Total})
			mu.Unlock()
		},
	})
	defer c.Close()

	grid := tinyGrid()[:1]
	straggler, stragglerUnits := handDrivenWorker(t, c)
	done := make(chan error, 1)
	go func() {
		_, err := c.Sweep(context.Background(), grid)
		done <- err
	}()
	// The straggler takes the only unit and sits on it; the second worker
	// joins afterwards, receives the endgame copy, and fails it.
	uA := within(t, "the straggler's unit", stragglerUnits)
	failer, failerUnits := handDrivenWorker(t, c)
	uB := within(t, "the endgame copy", failerUnits)
	if uB.ID != uA.ID {
		t.Fatalf("endgame copy is unit %d, want %d", uB.ID, uA.ID)
	}
	if err := sendResult(failer, UnitResult{Epoch: uB.Epoch, ID: uB.ID, Key: uB.Key, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "the failed sweep", done); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("sweep err = %v, want the copy's failure", err)
	}
	if n := heldSlots(c); n != 1 {
		t.Fatalf("%d slots held after the failure, want the straggler's 1", n)
	}
	// The straggler wakes up with a SUCCESS for the same unit, after its
	// sweep is over: dropped, and its slot comes free.
	if err := sendResult(straggler, UnitResult{Epoch: uA.Epoch, ID: uA.ID, Key: uA.Key, Result: stubResult(grid[0], 0)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for heldSlots(c) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the late result did not free the straggler's slot")
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.Completed != 1 || st.Duplicated != 1 {
		t.Fatalf("Completed = %d, Duplicated = %d, want 1 and 1 (late duplicate must not count): %+v", st.Completed, st.Duplicated, st)
	}
	if _, ok := c.cfg.Engine.Lookup(grid[0]); ok {
		t.Fatal("late duplicate success reached the cache")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || calls[0] != (call{1, 1}) {
		t.Fatalf("OnUnitDone calls = %+v, want exactly [{1 1}]", calls)
	}
}

// TestSweepCtxCancelWithSilentWorker: a worker that takes a unit and goes
// silent with its connection open must not pin a cancelled sweep — Sweep
// returns the context's error without waiting for that unit.
func TestSweepCtxCancelWithSilentWorker(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	_, units := handDrivenWorker(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Sweep(ctx, tinyGrid())
		done <- err
	}()
	within(t, "the silent worker's unit", units)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(time.Second - time.Since(start)):
		t.Fatal("cancelled sweep still blocked 1 s after it started, on the silent worker's unit")
	}
}

// TestSilentWorkerSweepCompletes: a worker that takes a unit and goes silent
// with its connection open cannot hang a sweep that has a healthy peer — the
// peer gets an endgame copy of the unit, and the grid ends byte-identical to
// the local sweep with the silent worker neither lost nor waited for.
func TestSilentWorkerSweepCompletes(t *testing.T) {
	grid := tinyGrid()
	baseline, err := testEngine().Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	_, units := handDrivenWorker(t, c)
	type outcome struct {
		rs  []*simgpu.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := c.Sweep(context.Background(), grid)
		done <- outcome{rs, err}
	}()
	within(t, "the silent worker's unit", units)
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
	o := within(t, "the sweep", done)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if st := c.Stats(); st.Duplicated < 1 || st.WorkersLost != 0 {
		t.Fatalf("want an endgame copy and no lost worker: %+v", st)
	}
	if !bytes.Equal(encodeResults(t, o.rs), encodeResults(t, baseline)) {
		diffFailure(t, "silent-worker", baseline, o.rs)
	}
}

// TestEndgameOneCopyAtATime: the cluster runs one endgame copy at a time. A
// third idle worker gets nothing while the first copy runs, and the copy's
// result ends the sweep.
func TestEndgameOneCopyAtATime(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	defer c.Close()
	_, silentUnits := handDrivenWorker(t, c)
	done := make(chan error, 1)
	go func() {
		_, err := c.Sweep(context.Background(), tinyGrid()[:1])
		done <- err
	}()
	u := within(t, "the silent worker's unit", silentUnits)
	copier, copierUnits := handDrivenWorker(t, c)
	cp := within(t, "the endgame copy", copierUnits)
	if cp.ID != u.ID {
		t.Fatalf("endgame copy is unit %d, want %d", cp.ID, u.ID)
	}
	_, idleUnits := handDrivenWorker(t, c)
	select {
	case extra := <-idleUnits:
		t.Fatalf("a second copy (unit %d) went out while the first was running", extra.ID)
	case <-time.After(100 * time.Millisecond):
	}
	res, err := testEngine().Run(cp.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendResult(copier, UnitResult{Epoch: cp.Epoch, ID: cp.ID, Key: cp.Key, Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "the sweep", done); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Duplicated != 1 || st.Completed != 1 {
		t.Fatalf("Duplicated = %d, Completed = %d, want 1 and 1: %+v", st.Duplicated, st.Completed, st)
	}
}
