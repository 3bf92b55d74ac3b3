package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestLateJoinerCompletesSweep: in WaitForWorkers mode a sweep started
// against an empty cluster blocks, then completes once a worker registers —
// the listen-mode deployment shape.
func TestLateJoinerCompletesSweep(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), WaitForWorkers: true})
	defer c.Close()
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
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
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
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), WaitForWorkers: true})
	defer c.Close()
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
			if err := f.send(hello); err != nil {
				t.Fatal(err)
			}
			var ack HelloAck
			if err := f.recv(&ack, 0); err != nil {
				t.Fatal(err)
			}
			spec := sweep.Spec{App: "tm", Kind: trace.Steady, Policy: "pard"}
			if err := f.send(WorkUnit{Epoch: 1, ID: 0, Key: "run|" + spec.Key() + marker, Spec: spec}); err != nil {
				t.Fatal(err)
			}
			var r UnitResult
			if err := f.recv(&r, 0); err != nil {
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
	go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1, UnitDelay: 500 * time.Millisecond}) }()
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
		if err := f.send(unit(id, policy)); err != nil {
			t.Fatalf("unit %d was not accepted: %v", id, err)
		}
	}
	coordSide.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	if err := f.send(unit(2, "nexus")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a third unit was read while the one slot was taken and one unit waited for it (send error: %v)", err)
	}
	var r UnitResult
	if err := f.recv(&r, 10*time.Second); err != nil || r.ID != 0 || r.Err != "" {
		t.Fatalf("first result: %+v, %v", r, err)
	}
	coordSide.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := f.send(unit(2, "nexus")); err != nil {
		t.Fatalf("the third unit was still refused after a slot came free: %v", err)
	}
	for _, id := range []int{1, 2} {
		if err := f.recv(&r, 10*time.Second); err != nil || r.ID != id || r.Err != "" {
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
// protocol version — a future one, v4, whose hellos this version's Hello
// decodes field for field, and v3, the last before the lockstep exchanges left
// gob — and neither side hangs doing so.
func TestVersionMismatchRefused(t *testing.T) {
	for _, peer := range []int{ProtoVersion + 1, 4, 3} {
		t.Run("worker-side/"+peerName(peer), func(t *testing.T) {
			coordSide, workerSide := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1}) }()
			f := newFramed(coordSide)
			if err := f.send(Hello{Proto: peer}); err != nil {
				t.Fatal(err)
			}
			// The worker still acks (net.Pipe is synchronous, so the refusal
			// ack must be consumed) but then refuses to serve.
			var ack HelloAck
			if err := f.recv(&ack, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if ack.Proto != ProtoVersion {
				t.Fatalf("refusal ack names protocol %d, want this side's %d", ack.Proto, ProtoVersion)
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), "version mismatch") {
				t.Fatalf("worker accepted protocol %d: %v", peer, err)
			}
			coordSide.Close()
		})
		t.Run("coordinator-side/"+peerName(peer), func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
			defer c.Close()
			coordSide, fakeWorker := net.Pipe()
			go func() {
				f := newFramed(fakeWorker)
				var h Hello
				if f.recv(&h, 0) == nil {
					f.send(HelloAck{Proto: peer, Capacity: 1})
				}
			}()
			if err := c.AddConn(coordSide); err == nil || !strings.Contains(err.Error(), "version mismatch") {
				t.Fatalf("coordinator accepted protocol %d: %v", peer, err)
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
		var h Hello
		if f.recv(&h, 0) != nil {
			return
		}
		f.send(HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP})
	}()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	handshake.Wait()
	// Inject a garbage result before any sweep: no state may change.
	if err := f.send(UnitResult{Epoch: 99, ID: 0, Key: "run|bogus"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := c.Stats(); st.Completed != 0 {
		t.Fatalf("stale result was merged: %+v", st)
	}
	key := "run|" + tinyGrid()[0].Key()
	if _, ok := eng.Lookup(key); ok {
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
	// Matching custom libraries on both sides are accepted.
	c2 := NewCoordinator(CoordinatorConfig{Engine: sweep.New(sweep.Config{
		Workers: 1, BaseSeed: 3, TraceDuration: 10 * time.Second, Library: scaled,
	})})
	defer c2.Close()
	cs2, ws2 := net.Pipe()
	go ServeConn(ws2, WorkerConfig{Workers: 1, Library: scaled})
	if err := c2.AddConn(cs2); err != nil {
		t.Fatalf("matching custom libraries refused: %v", err)
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
		var h Hello
		if f.recv(&h, 0) != nil {
			return
		}
		if f.send(HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
			return
		}
		var u WorkUnit
		if f.recv(&u, 0) != nil {
			return
		}
		f.send(UnitResult{Epoch: u.Epoch, ID: u.ID, Key: "run|tampered", Result: &simgpu.Result{}})
	}()
	if err := c.AddConn(coordSide); err != nil {
		t.Fatal(err)
	}
	_, err := c.Sweep(context.Background(), tinyGrid()[:1])
	if err == nil || !strings.Contains(err.Error(), "echoed key") {
		t.Fatalf("err = %v, want an echoed-key integrity failure", err)
	}
	if _, ok := c.cfg.Engine.Lookup("run|" + tinyGrid()[0].Key()); ok {
		t.Fatal("tampered result reached the cache")
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
		st.RemoteHits != 0 || st.Speculated != 0 || st.Requeued != 0 {
		t.Fatalf("cold sweep stats: %+v", st)
	}
	if ws := st.PerWorker[1]; ws.Completed != 2 || ws.CacheHits != 0 || ws.Speculative != 0 {
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

// TestStatsAccountingUnderSpeculation: a wedged worker forces a speculative
// duplicate of its unit; the winning copy is counted once, the loser is
// dropped — Completed never exceeds the number of units.
func TestStatsAccountingUnderSpeculation(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), SpeculateAfter: 50 * time.Millisecond})
	defer c.Close()
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1, UnitDelay: 20 * time.Second})
	startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
	rs, err := c.Sweep(context.Background(), tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0] == nil || rs[1] == nil {
		t.Fatalf("sweep returned %v", rs)
	}
	st := c.Stats()
	if st.Speculated == 0 {
		t.Fatalf("wedged worker never triggered speculation: %+v", st)
	}
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (duplicates must not be counted): %+v", st.Completed, st)
	}
	if st.Dispatched < 3 || st.Dispatched > 2+st.Speculated {
		t.Fatalf("Dispatched = %d, want 2 originals + 1..%d speculative: %+v", st.Dispatched, st.Speculated, st)
	}
	if st.Requeued != 0 || st.WorkersLost != 0 {
		t.Fatalf("speculation accounted as loss: %+v", st)
	}
	// Per-worker Speculative counts copies actually DISPATCHED — exactly
	// the dispatches beyond the two originals (queued copies whose original
	// resolved first never dispatch and are only in Speculated).
	spec := 0
	for _, ws := range st.PerWorker {
		spec += ws.Speculative
	}
	if spec != st.Dispatched-2 {
		t.Fatalf("per-worker speculative dispatches (%d) disagree with Dispatched-2 (%d): %+v", spec, st.Dispatched-2, st)
	}
}

// TestLateDuplicateAfterFailureDropped: under speculation a unit can resolve
// as a failure while its other copy is still running. The copy's later
// success must be dropped — not merged into the cache, not double-counted,
// and OnUnitDone's Done must never exceed Total.
func TestLateDuplicateAfterFailureDropped(t *testing.T) {
	type call struct{ done, total int }
	var mu sync.Mutex
	var calls []call
	c := NewCoordinator(CoordinatorConfig{
		Engine:         testEngine(),
		SpeculateAfter: 30 * time.Millisecond,
		OnUnitDone: func(u UnitDone) {
			mu.Lock()
			calls = append(calls, call{u.Done, u.Total})
			mu.Unlock()
		},
	})
	defer c.Close()

	// A hand-driven worker that performs the handshake and hands back its
	// encoder plus the single unit it gets assigned.
	fakeWorker := func() (*framed, chan WorkUnit) {
		coordSide, workerSide := net.Pipe()
		f := newFramed(workerSide)
		units := make(chan WorkUnit, 1)
		go func() {
			var h Hello
			if f.recv(&h, 0) != nil {
				return
			}
			if f.send(HelloAck{Proto: ProtoVersion, Capacity: 1, LibraryFP: h.LibraryFP}) != nil {
				return
			}
			var u WorkUnit
			if f.recv(&u, 0) != nil {
				return
			}
			units <- u
		}()
		if err := c.AddConn(coordSide); err != nil {
			t.Fatal(err)
		}
		return f, units
	}

	grid := tinyGrid()[:1]
	straggler, stragglerUnits := fakeWorker()
	done := make(chan error, 1)
	go func() {
		_, err := c.Sweep(context.Background(), grid)
		done <- err
	}()
	// The straggler takes the only unit and sits on it; the second worker
	// joins afterwards, receives the speculative copy, and fails it.
	uA := <-stragglerUnits
	failer, failerUnits := fakeWorker()
	uB := <-failerUnits
	if uB.ID != uA.ID {
		t.Fatalf("speculative copy is unit %d, want %d", uB.ID, uA.ID)
	}
	if err := failer.send(UnitResult{Epoch: uB.Epoch, ID: uB.ID, Key: uB.Key, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	// Once the failure is merged, the straggler wakes up with a SUCCESS for
	// the same unit — which must be dropped, not merged.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failure never merged")
		}
		time.Sleep(time.Millisecond)
	}
	if err := straggler.send(UnitResult{Epoch: uA.Epoch, ID: uA.ID, Key: uA.Key, Result: &simgpu.Result{}}); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("sweep err = %v, want the copy's failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never returned")
	}
	if st := c.Stats(); st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (late duplicate must not count): %+v", st.Completed, st)
	}
	if _, ok := c.cfg.Engine.Lookup("run|" + grid[0].Key()); ok {
		t.Fatal("late duplicate success reached the cache")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || calls[0] != (call{1, 1}) {
		t.Fatalf("OnUnitDone calls = %+v, want exactly [{1 1}]", calls)
	}
}
