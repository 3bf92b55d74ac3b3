package sched

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/policy"
)

// These tests pin the allocation floors the engine-flip refactor bought:
// typed laneEvents travel by value through lane queues and their window
// bands, and the intent bridge recycles its merge scratch and
// retired maps — so the steady-state hot path allocates nothing per event.
// A regression that reintroduces a per-event closure, a per-barrier sort
// copy, or a per-window map shows up here as a nonzero floor.

// TestAllocsEventDispatch: pushing a laneEvent into a warmed lane and firing
// it allocates nothing.
func TestAllocsEventDispatch(t *testing.T) {
	l := new(laneState)
	fired := 0
	ev := fnEvent(func(now time.Duration) { fired++ })

	// Warm the queue's backing array past the test's working set.
	for i := 0; i < 64; i++ {
		l.q.push(time.Duration(i), ev)
	}
	l.run(0, 1<<62)

	at := time.Duration(64)
	avg := testing.AllocsPerRun(200, func() {
		l.q.push(at, ev)
		l.run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("lane event dispatch allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// TestAllocsLaneQueue: the lane queue's two halves both settle. A run that
// drains starts again at the front of the array it already has, a run that
// never quite drains slides its tail down instead of growing, and the heap
// under it keeps its storage — so steady-state push/pop allocates nothing.
func TestAllocsLaneQueue(t *testing.T) {
	var q laneQueue
	ev := laneEvent{req: &Request{}}
	at := time.Duration(0)
	round := func() {
		// 64 ascending arrivals into the run, the first 32 pops each leaving
		// a follow-up in the heap (a batch end); the last arrival stays
		// pending, so the run is never empty between rounds.
		for i := 0; i < 64; i++ {
			at++
			q.push(at, ev)
		}
		for i := 0; len(q.run)-q.head > 1 || len(q.heap) > 0; i++ {
			popped, _ := q.peek()
			q.pop()
			if i < 32 {
				q.pushHeap(popped+1, ev)
			}
		}
	}
	for i := 0; i < 8; i++ {
		round() // let both arrays reach their steady size
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state lane queue traffic allocates %.1f per round, want 0", avg)
	}
	if cap(q.run) > 256 {
		t.Fatalf("a run with at most 65 pending entries grew to %d: the consumed prefix is not being reclaimed", cap(q.run))
	}

	// Drain, then refill: same array, from the front.
	for q.head < len(q.run) {
		q.pop()
	}
	was := &q.run[:1][0]
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			at++
			q.push(at, ev)
		}
		for i := 0; i < 64; i++ {
			q.pop()
		}
	}); avg != 0 {
		t.Fatalf("refilling a drained run allocates %.1f, want 0", avg)
	}
	if q.head != 0 || len(q.run) != 0 || &q.run[:1][0] != was {
		t.Fatal("a drained run did not go back to the front of its array")
	}
}

// TestAllocsLaneReservation: once the host has announced a trace's length,
// injecting it allocates nothing — the source lane's run is sized once rather
// than grown a quarter at a time under every arrival (a fifth of the bytes a
// grid run allocated, and as many trips to the collector).
func TestAllocsLaneReservation(t *testing.T) {
	const n = 4096
	x := NewLaneExecutor(2, time.Millisecond)
	ev := laneEvent{req: &Request{}}
	x.Reserve(1, n)
	was := cap(x.lanes[1].q.run)
	at := time.Duration(0)
	if avg := testing.AllocsPerRun(1, func() { // runs twice: half the trace each
		for i := 0; i < n/2; i++ {
			at++
			x.scheduleLaneEvent(-1, 1, at, ev)
		}
	}); avg != 0 {
		t.Fatalf("injecting a reserved trace allocates %.0f times, want 0", avg)
	}
	if q := &x.lanes[1].q; cap(q.run) != was || len(q.run) != n || len(q.heap) != 0 {
		t.Fatalf("reserved run: cap %d → %d, %d in the run, %d in the heap; want cap unchanged, %d, 0", was, cap(q.run), len(q.run), len(q.heap), n)
	}
}

// TestAllocsScheduleEventLanePath: a lane-context schedule on the lane engine
// allocates nothing per event: the event goes by value from the caller's
// frame into the destination lane's window band. This floor catches anything on the way
// (an interface conversion of the event, a closure over it) that would make
// the by-value parameter escape.
func TestAllocsScheduleEventLanePath(t *testing.T) {
	x := NewLaneExecutor(2, time.Millisecond)
	x.running = true
	cl := &Cluster{exec: x}
	fired := 0
	ev := fnEvent(func(now time.Duration) { fired++ })

	for i := 0; i < 64; i++ {
		cl.exec.scheduleLaneEvent(0, 1, time.Duration(i), ev)
	}
	x.closeBands()
	x.lanes[1].run(0, 1<<62)

	at := time.Duration(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		cl.exec.scheduleLaneEvent(0, 1, at, ev)
		x.closeBands()
		x.lanes[1].run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("lane-path scheduleLaneEvent allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// TestAllocsScheduleEventGlobalQueue: the same call from host context on the
// manual clock, stepped by RunUntil — the live data plane's path — allocates
// nothing either. The core's typed events (an arrival or hop, a batch end)
// sit in the lane by value and fire through laneState.run, with no closure
// and no carrier per event, and a step costs nothing of its own. The module
// is a merge point still waiting for branches and the worker is dead, so
// firing goes no further than the dispatch.
func TestAllocsScheduleEventGlobalQueue(t *testing.T) {
	man := NewManualExecutor()
	man.addLanes(1, 0)
	cl := &Cluster{exec: man}
	m := &module{cl: cl, spec: pipeline.Module{Pres: []int{0, 1}}}
	man.lanes[0].m = m
	req := &Request{ExpectedMerge: 1 << 30}
	receive := laneEvent{req: req}
	batchEnd := laneEvent{h: (*batchEndEvent)(&worker{dead: true})}

	at := time.Duration(0)
	round := func() {
		at++
		cl.exec.scheduleLaneEvent(-1, 0, at, receive)
		cl.exec.scheduleLaneEvent(0, 0, at+1, batchEnd)
		man.RunUntil(at + 1)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("host-context scheduleLaneEvent + step allocates %.1f per two events, want 0", avg)
	}
	if req.mergeArrived != int(at) || man.Pending() != 0 {
		t.Fatalf("%d of %d arrivals fired, %d events left", req.mergeArrived, at, man.Pending())
	}
}

// TestAllocsMailboxCommit: a full cross-lane round trip — a post into the
// destination's window band, the band closed at the barrier, destination
// dispatch — plus a laneBridge intent commit, all at zero allocations per
// event in steady state.
func TestAllocsMailboxCommit(t *testing.T) {
	x := NewLaneExecutor(2, time.Millisecond)
	x.running = true // cross-lane sends are posts only while running
	fired := 0
	ev := fnEvent(func(now time.Duration) { fired++ })

	// Warm the destination queue's storage.
	for i := 0; i < 64; i++ {
		x.scheduleLaneEvent(0, 1, time.Duration(i), ev)
	}
	x.closeBands()
	x.lanes[1].run(0, 1<<62)

	at := time.Duration(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		x.scheduleLaneEvent(0, 1, at, ev)
		x.closeBands()
		x.lanes[1].run(at, at+1)
		at++
	})
	if avg != 0 {
		t.Fatalf("cross-lane mailbox round trip allocates %.1f per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("posted events never fired")
	}

	// Intent commit: the bridge's intent lists and merge scratch must be
	// reused across barriers. The cluster here is a shell — commit only
	// touches module drop counters and the (nil) host callbacks.
	cl := &Cluster{modules: []*module{{}, {}}}
	b := newLaneBridge(cl, 2)
	req := &Request{ID: 1}
	b.add(0, req, 1, true)
	b.add(1, req, 1, false)
	b.commit(nil)

	now := time.Duration(1)
	avg = testing.AllocsPerRun(200, func() {
		req.Dropped, req.Finished = false, false
		b.add(0, req, now, true)
		b.add(1, req, now+1, false)
		b.commit(nil)
		now++
	})
	if avg != 0 {
		t.Fatalf("intent commit allocates %.1f per barrier, want 0", avg)
	}
}

// echoTransport answers a barrier the way a two-group fabric would: the
// caller's own message in slot 0 and a fixed peer contribution in slot 1,
// in storage it reuses (as the wire transport's decode buffers are).
type echoTransport struct {
	Transport
	reply [2]BarrierMsg
}

func (e *echoTransport) Barrier(m BarrierMsg) ([]BarrierMsg, error) {
	e.reply[0] = m
	return e.reply[:], nil
}

// TestAllocsBarrierExchange: the executor's side of one multi-group window
// barrier — encoding intents, charges and merge resets into the alternating
// wire buffers, handing off the cross-group posts, staging and delivering the
// peer's, applying the merged commit and deriving the next watermark —
// allocates nothing in steady state. With internal/dist's
// TestAllocsWireExchange (zero on the transport) a lockstep exchange is
// allocation-free end to end.
func TestAllocsBarrierExchange(t *testing.T) {
	reqs := []Request{{ID: 0}, {ID: 1}}
	tr := &echoTransport{}
	tr.reply[1] = BarrierMsg{
		Group: 1, LaneAt: time.Hour, LaneOK: true,
		Posts:   []WirePost{{At: time.Hour, Src: 1, Dst: 0, Req: 1}},
		Charges: []WireCharge{{Mod: 1, Req: 1, GPU: time.Millisecond}},
	}
	x, err := NewLaneExecutorTopo(2, time.Millisecond, Topology{Groups: 2, Group: 0}, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{
		modules: []*module{{}, {}},
		exec:    x, topo: x.topo, tr: tr,
		resolve: func(id uint64) *Request { return &reqs[id] },
	}
	cl.bridge = newLaneBridge(cl, 2)
	for _, m := range cl.modules {
		m.cl = cl
	}
	round := func() {
		reqs[0].Dropped = false
		cl.bridge.add(0, &reqs[0], time.Second, true)
		cl.modules[0].chargeRequest(&reqs[0], time.Millisecond, 0, 0, 0)
		cl.modules[0].mergeResets = append(cl.modules[0].mergeResets, WireMergeReset{Mod: 0, Req: 0, Expected: 2})
		x.wireOut = append(x.wireOut, WirePost{At: time.Second, Src: 0, Dst: 1, Req: 0})
		if err := cl.barrier(); err != nil {
			t.Fatal(err)
		}
		// Drop the delivered post unfired: its destination module is a shell.
		if x.lanes[0].q.len() != 1 {
			t.Fatal("the peer's post was not delivered")
		}
		x.lanes[0].q.pop()
	}
	for i := 0; i < 4; i++ {
		round() // warm both wire buffer sets and the staging scratch
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("one multi-group barrier allocates %.1f on the executor's side, want 0", avg)
	}
	// The earliest pending event anywhere is the post this group just sent.
	if !x.wmFresh || !x.wmOK || x.wmAt != time.Second {
		t.Fatalf("barrier left watermark (%v,%t,fresh=%t), want the outgoing post's 1s", x.wmAt, x.wmOK, x.wmFresh)
	}
	if reqs[0].GPU == 0 || reqs[1].GPU == 0 || !reqs[0].Dropped {
		t.Fatal("the merged commit was not applied")
	}
}

// TestAllocsMemExchange: the in-process fabric's side of a lockstep round — a
// Step and a Barrier between two groups — allocates nothing in steady state.
// Messages pass by value into typed slots; each kind's merged slices are cut
// from a chunk refilled once per memChunkRounds rounds, which the floor's
// integer average reads as 0 and a per-round allocation would read as 1 or
// more. With TestAllocsBarrierExchange, a two-group in-process run makes no
// allocation per barrier.
func TestAllocsMemExchange(t *testing.T) {
	const warm, runs = 2 * memChunkRounds, 200
	trs := NewMemTransports(2)
	posts := [2][]WirePost{nil, {{At: time.Millisecond, Src: 1, Dst: 0, Req: 1}}}
	round := func(g int) error {
		if _, err := trs[g].Step(StepMsg{Group: int32(g), LaneOK: true}); err != nil {
			return err
		}
		all, err := trs[g].Barrier(BarrierMsg{Group: int32(g), Posts: posts[g]})
		if err == nil && (len(all) != 2 || len(all[1].Posts) != 1) {
			err = fmt.Errorf("barrier merged %+v", all)
			trs[g].Abort(err) // release the peer from its rendezvous
		}
		return err
	}
	peer := make(chan error, 1)
	go func() {
		// AllocsPerRun calls its function runs+1 times.
		for i := 0; i < warm+runs+1; i++ {
			if err := round(1); err != nil {
				peer <- err
				return
			}
		}
		peer <- nil
	}()
	for i := 0; i < warm; i++ {
		if err := round(0); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	avg := testing.AllocsPerRun(runs, func() {
		if err == nil {
			err = round(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peer; err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("a Step + Barrier round on the in-process fabric allocates %.1f, want 0", avg)
	}
}

// TestAllocsTimerExecutor: the paced executor holds events by value in one
// queue and re-arms one timer, so scheduling a pre-bound func and firing it
// allocates nothing. (One runtime timer, closure and map entry per event
// cost at least three.)
func TestAllocsTimerExecutor(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	fired := make(chan struct{}, 1)
	fn := func(time.Duration) { fired <- struct{}{} }
	round := func() {
		// One event the drainer is woken for, one it arms its timer for.
		x.Schedule(x.Now(), "now", fn)
		<-fired
		x.Schedule(x.Now()+50*time.Microsecond, "soon", fn)
		<-fired
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("schedule + fire allocates %.1f per two events, want 0", avg)
	}
}

// tickProbe is a typed host event over a record the host owns.
type tickProbe struct{ fired chan struct{} }

func (p *tickProbe) Fire(time.Duration) {
	if p.fired != nil {
		p.fired <- struct{}{}
	}
}

// TestAllocsHandlerEvent: a typed host event is a pointer the host already
// holds, converted to a Handler and queued by value — scheduling and firing
// one allocates nothing on the manual or the wall clock. (A callback per
// event costs the closure: internal/rag made 200 000 a run that way.)
func TestAllocsHandlerEvent(t *testing.T) {
	man := NewManualExecutor()
	probe := &tickProbe{}
	at := time.Duration(0)
	manual := func() {
		at++
		man.ScheduleHandler(at, probe)
		man.RunUntil(at)
	}
	for i := 0; i < 64; i++ {
		manual()
	}
	if avg := testing.AllocsPerRun(200, manual); avg != 0 {
		t.Fatalf("ManualExecutor: schedule + fire of a handler allocates %.1f, want 0", avg)
	}

	// A reserved queue takes a whole trace of them without growing.
	const trace = 4096
	res := NewManualExecutor()
	res.Reserve(-1, trace)
	if avg := testing.AllocsPerRun(1, func() { // runs twice: half the trace each
		for i := 0; i < trace/2; i++ {
			at++
			res.ScheduleHandler(at, probe)
		}
	}); avg != 0 || res.Pending() != trace {
		t.Fatalf("ManualExecutor: a reserved trace allocates %.0f times and leaves %d pending, want 0 and %d", avg, res.Pending(), trace)
	}

	tim := NewTimerExecutor()
	defer tim.Stop()
	paced := &tickProbe{fired: make(chan struct{}, 1)}
	timer := func() {
		tim.ScheduleHandler(tim.Now(), paced)
		<-paced.fired
	}
	for i := 0; i < 64; i++ {
		timer()
	}
	if avg := testing.AllocsPerRun(200, timer); avg != 0 {
		t.Fatalf("TimerExecutor: schedule + fire of a handler allocates %.1f, want 0", avg)
	}
}

// TestStreamSeedMatchesFNV: the inline hash is FNV-64a of "seed|k|purpose"
// as fmt prints it, so every module stream keeps the seed it always had.
func TestStreamSeedMatchesFNV(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		k       int
		purpose string
	}{
		{0, 0, "stat"}, {1, 0, "exec"}, {1, 4, "path"}, {-7, 12, "stat"},
		{math.MaxInt64, math.MaxInt32, "exec"}, {math.MinInt64, 3, ""},
		{42, 1 << 40, "a purpose longer than the stack buffer holds, twice over"},
	} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%s", c.seed, c.k, c.purpose)
		if got, want := streamSeed(c.seed, c.k, c.purpose), int64(h.Sum64()); got != want {
			t.Errorf("streamSeed(%d, %d, %q) = %d, want %d", c.seed, c.k, c.purpose, got, want)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { streamSeed(-1, 3, "stat") }); avg != 0 {
		t.Fatalf("streamSeed allocates %.1f, want 0", avg)
	}
}

// TestAllocsWorkerPool: a module builds its worker pool in one piece — worker
// structs, queues, queue storage and batch slabs are four arrays carved per
// worker — so a pool's size costs no allocations. A cluster of 64 workers a
// module allocates exactly as often as one of a single worker, and one
// scale-out of k cold workers allocates the same for every k, under a DEPQ
// policy (pard) and a FIFO one (nexus).
func TestAllocsWorkerPool(t *testing.T) {
	spec := pipeline.LV()
	newCluster := func(pol string, workers int) (*Cluster, *LaneExecutor) {
		man := NewManualExecutor()
		ws := make([]int, spec.N())
		for k := range ws {
			ws[k] = workers
		}
		cl, err := New(mustPlan(t, spec, ws), Config{PolicyName: pol, Seed: 1}, man)
		if err != nil {
			t.Fatal(err)
		}
		return cl, man
	}
	// fewest is the fewest allocations of three tries: under -race the
	// runtime now and then adds one of its own.
	fewest := func(try func() uint64) uint64 {
		n := try()
		for i := 0; i < 2; i++ {
			n = min(n, try())
		}
		return n
	}
	for _, pol := range []string{"pard", "nexus"} {
		build := func(workers int) uint64 {
			return fewest(func() uint64 {
				return uint64(testing.AllocsPerRun(5, func() { newCluster(pol, workers) }))
			})
		}
		if one, many := build(1), build(64); one != many {
			t.Errorf("%s: New allocates %d times with 1 worker a module, %d with 64", pol, one, many)
		}

		scaleOut := func(k int) uint64 {
			return fewest(func() uint64 {
				cl, man := newCluster(pol, 1)
				man.Reserve(0, k) // k warm-up events: the module's lane must not grow
				m := cl.modules[0]
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m.applyScale(0, 1+k)
				runtime.ReadMemStats(&after)
				if len(m.workers) != 1+k || man.Pending() != k {
					t.Fatalf("%s: scaling out by %d left %d workers and %d warm-ups", pol, k, len(m.workers), man.Pending())
				}
				return after.Mallocs - before.Mallocs
			})
		}
		one := scaleOut(1)
		for _, k := range []int{4, 64} {
			if n := scaleOut(k); n != one {
				t.Errorf("%s: scaling out by %d allocates %d times, by 1 %d", pol, k, n, one)
			}
		}
	}
}

// TestAllocsClusterBuild: New builds a cluster from per-cluster arrays —
// modules, the initial worker pools, the State Planner windows and rings,
// the priority controllers and the board's batch-wait slots — so a build
// allocates a fixed count plus the execution-jitter stream (a math/rand Rand
// and its source) of each module it owns. A 3-, a 5- and a 70-module chain
// differ by at most 2 allocations a module under every policy, and the fixed
// count (29–40 by policy) stays under fixedCeiling. The plan is built
// before: New validates nothing and sizes no batch again.
func TestAllocsClusterBuild(t *testing.T) {
	const fixedCeiling = 40
	specs := []*pipeline.Spec{pipeline.TM(), pipeline.LV(), pipeline.Uniform("c70", 70, "eyetrack", 3*time.Second)}
	for _, pol := range policy.Names() {
		counts := make([]uint64, len(specs))
		for i, spec := range specs {
			ws := make([]int, spec.N())
			for k := range ws {
				ws[k] = 2
			}
			plan, cfg := mustPlan(t, spec, ws), Config{PolicyName: pol, Seed: 1}
			build := func() uint64 {
				return uint64(testing.AllocsPerRun(3, func() {
					if _, err := New(plan, cfg, NewManualExecutor()); err != nil {
						t.Fatal(err)
					}
				}))
			}
			// The fewest of three tries: under -race the runtime now and
			// then adds one of its own.
			counts[i] = min(build(), build(), build())
		}
		t.Logf("%-13s %d / %d / %d allocations for %d / %d / %d modules", pol, counts[0], counts[1], counts[2], specs[0].N(), specs[1].N(), specs[2].N())
		if fixed := counts[0] - 2*uint64(specs[0].N()); fixed > fixedCeiling {
			t.Errorf("%s: %d allocations for %d modules: %d besides the jitter streams, ceiling %d", pol, counts[0], specs[0].N(), fixed, fixedCeiling)
		}
		for i := 1; i < len(specs); i++ {
			extra := uint64(specs[i].N() - specs[0].N())
			if counts[i] > counts[0]+2*extra {
				t.Errorf("%s: %d allocations for %d modules, %d for %d: more than 2 a module", pol, counts[i], specs[i].N(), counts[0], specs[0].N())
			}
		}
	}
}
