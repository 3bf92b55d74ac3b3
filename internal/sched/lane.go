package sched

import (
	"fmt"
	"math"
	"time"
)

// LaneExecutor is the scheduling core's one event loop. The global event heap
// is partitioned into per-module lanes (one laneQueue per module: a monotone
// run beside a small min-heap, see lanequeue.go) plus a serial control lane
// for cluster-wide and host events (state sync, scaling, injected failures, a
// host's own timers). One thread advances the lanes, one after another,
// through lookahead windows under a low-watermark barrier; the windows are
// the contract for when a module's effects become visible to the others:
//
//   - Within a lane, events fire in (timestamp, insertion-order) order; a
//     post counts as inserted at the barrier after the window it was made in.
//   - Lanes advance together through windows [low, high): low is the minimum
//     pending lane timestamp across all lanes (the low watermark), high is
//     low + lookahead, clamped to the next control event. Cross-lane
//     messages travel at least one network hop (lookahead = the per-hop
//     delay), so nothing produced inside a window can be consumed inside it:
//     the order in which a window's lanes run is unobservable.
//   - Cross-lane events (batch hand-off, DAG fan-out/merge hops) go straight
//     into their destination lanes, keyed in mailbox order: after everything
//     the destination queued before the barrier, in (virtual time, source
//     module, send order) among themselves (lanequeue.go).
//   - A termination decided inside a window is seen at once by the module
//     that decided it and by every other module from the barrier on, when
//     it commits (mailbox.go).
//   - Control events run at the barrier with every lane parked, in
//     (timestamp, schedule order), and take precedence over lane events at
//     equal timestamps.
//
// With a zero lookahead the window degenerates to a single timestamp and
// same-time cross-lane messages are exchanged through fixpoint sub-rounds: a
// lane does not fire a post of the window it is running.
//
// One step is a control round or a window, and the steps run in that order
// on each of three clocks: virtual (NewLaneExecutor, Run), manual
// (NewManualExecutor, RunUntil) and wall (NewTimerExecutor, clock.go).
// RunUntil(t) runs every step whose instant is at or before t, whole, so as
// long as a host schedules at or after Now plus the hop delay, its steps and
// barriers fall where they fall with every event queued from the start: a
// live shell replayed on the manual clock decides every request as the
// simulator does.
//
// With a multi-group Topology (NewLaneExecutorTopo), the executor is one
// lane group of a replicated cluster: it executes only the lanes it owns,
// exchanges its cross-group posts — and, riding on the same message,
// its lane heads — through the Transport at every barrier, derives the next
// global low watermark from the gathered replies, and verifies control-lane
// lockstep against its peers — see transport.go for the distribution model.
// The single-group path never touches the Transport. A multi-group executor
// runs on the virtual clock only.
type LaneExecutor struct {
	lookahead time.Duration

	lanes []*laneState
	ctrl  *laneState

	// frontier is the instant before which every step has run: the floor of
	// a newly scheduled event. now is what Now reports on a stepped clock:
	// the last step's instant, or the t of the last RunUntil when later.
	frontier, now time.Duration
	running       bool

	barrierFn func() error

	wall *wallClock // the wall clock's drainer state; nil on a stepped clock

	// Lane-group state (zero/nil on the single-group path).
	topo      Topology
	tr        Transport
	err       error      // first transport/lockstep error; aborts the run
	wireOut   []WirePost // this window's cross-group posts (handed off per barrier)
	wireSpare []WirePost // the previous barrier's posts, possibly still read by peers

	// The next global low watermark, as derived from the last barrier
	// exchange (see noteBarrier) and from the control-context schedules made
	// since the loop head (see insert). wmFresh is false until an exchange
	// of the current iteration has refreshed it.
	wmAt, ctxAt time.Duration
	wmOK, ctxOK bool
	wmFresh     bool
}

// verifyWatermark makes every loop head of a multi-group run also perform
// the Step exchange and abort the run if the watermark derived from the
// barrier differs from it. Only tests set it (export_test.go).
var verifyWatermark bool

// laneEvent is one scheduled event inside a lane: a receive — an arrival or
// a hop of req into the lane's module — when h is nil, h.Fire otherwise. The
// core's other kinds are Handlers over the *worker (batchEndEvent,
// warmupEvent) and a host's its own typed events or a callback wrapped by
// fnEvent, so scheduling one moves a plain value through the lane queues with
// no per-event allocation. The event carries no label — a Schedule call's
// name stays at the call site — so a queued item is 40 bytes.
type laneEvent struct {
	h   Handler
	req *Request
}

// laneState is one event lane: a queue ordered by (timestamp, key) — see
// laneQueue — plus the lane-local clock and the module its receives go to.
type laneState struct {
	q     laneQueue
	now   time.Duration
	fired uint64
	m     *module
}

// run fires every pending event with timestamp < hi — or == lo, which
// guarantees progress when the lookahead is zero — including events the
// callbacks push onto this same lane, and stops at a post of the running
// window: that fires in a later one.
func (l *laneState) run(lo, hi time.Duration) {
	for {
		it, inHeap := l.q.front()
		if it == nil || (it.at >= hi && it.at != lo) || l.q.posted(it) {
			return
		}
		at, ev := it.at, it.ev
		l.q.take(inHeap)
		if at > l.now {
			l.now = at
		}
		l.fired++
		if ev.h != nil {
			ev.h.Fire(l.now)
		} else {
			l.m.receive(ev.req, l.now)
		}
	}
}

// NewLaneExecutor builds an executor on the virtual clock with one lane per
// module. lookahead is the minimum cross-lane event delay — the cluster's
// per-hop network delay — and bounds how far lanes may run ahead of the low
// watermark.
func NewLaneExecutor(lanes int, lookahead time.Duration) *LaneExecutor {
	if lanes < 1 {
		panic(fmt.Sprintf("sched: lane executor needs >= 1 lanes, got %d", lanes))
	}
	x := &LaneExecutor{ctrl: new(laneState)}
	x.addLanes(lanes, lookahead)
	return x
}

// addLanes gives the executor its module lanes.
func (x *LaneExecutor) addLanes(n int, lookahead time.Duration) {
	x.lookahead = max(lookahead, 0)
	states := make([]laneState, n)
	x.lanes = make([]*laneState, n)
	for i := range states {
		x.lanes[i] = &states[i]
	}
}

// NewLaneExecutorTopo builds an executor running one lane group of a
// multi-group topology over the given transport. With a single-group
// topology the transport may be nil and the executor is identical to
// NewLaneExecutor's.
func NewLaneExecutorTopo(lanes int, lookahead time.Duration, topo Topology, tr Transport) (*LaneExecutor, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if !topo.single() && tr == nil {
		return nil, fmt.Errorf("sched: %d lane groups need a transport", topo.Groups)
	}
	x := NewLaneExecutor(lanes, lookahead)
	x.topo = topo
	if !topo.single() {
		x.tr = tr
	}
	return x, nil
}

// attach binds a cluster's modules, hop apart, to the executor: an executor
// built without lanes (the manual and the wall clock) gets one per module with
// the hop as its lookahead, every module lane is sized from its pool, and
// barrier becomes the hook the executor runs after every window and every
// control event.
func (x *LaneExecutor) attach(mods []*module, hop time.Duration, barrier func() error) error {
	n := len(mods)
	switch {
	case x.barrierFn != nil:
		return fmt.Errorf("sched: the executor already runs a cluster")
	case len(x.lanes) == 0 && x.wall != nil && hop > 0:
		// A window spans the hop; on the wall clock its later events would
		// fire at the window's start, ahead of their instants.
		return fmt.Errorf("sched: the wall clock runs windows of one instant, not a %v hop", hop)
	case len(x.lanes) == 0:
		x.addLanes(n, hop)
		x.ctrl.q.reserve(32) // a host's queues live as long as it does: room up front
	case len(x.lanes) != n:
		return fmt.Errorf("sched: executor has %d lanes for %d modules", len(x.lanes), n)
	}
	// Every module lane's heap and run are carved from one array each: a
	// heap holds at most a batch end per worker and a warm-up per cold one,
	// a run the posts of a batch from each, and both some stragglers.
	room := func(m *module) (heap, run int) {
		w := len(m.workers)
		return 2*w + 16, w*m.targetBatch + 16
	}
	var hn, rn int
	for _, m := range mods {
		h, r := room(m)
		hn, rn = hn+h, rn+r
	}
	hs, rs := make([]laneItem, hn), make([]laneItem, rn)
	for i, l := range x.lanes {
		h, r := room(mods[i])
		l.m, l.q.heap, hs = mods[i], hs[:0:h], hs[h:]
		if cap(l.q.run) == 0 { // a host may have reserved it already
			l.q.run = rs[:0:r]
		}
		rs = rs[r:]
	}
	x.barrierFn = barrier
	return nil
}

// Err returns the error that aborted the run, if any: a transport failure,
// a control-lane lockstep divergence, or a non-wire event reaching the
// group boundary. Multi-group hosts must check it after Run.
func (x *LaneExecutor) Err() error { return x.err }

// fail records the first fatal error and poisons the transport so peer
// groups abort instead of hanging at their next rendezvous.
func (x *LaneExecutor) fail(err error) {
	if err == nil || x.err != nil {
		return
	}
	x.err = err
	if x.tr != nil {
		x.tr.Abort(err)
	}
}

// Now returns the time elapsed since the start of the run: on the wall clock
// the wall's, on a stepped clock the instant of the last step run, or the t
// of the last RunUntil when that is later. Callbacks compute with the due
// instant they are handed, which may run ahead of Now inside a window; Now is
// for callers outside callbacks (a host stamping an arrival).
func (x *LaneExecutor) Now() time.Duration {
	if x.wall != nil {
		return time.Since(x.wall.start)
	}
	return x.now
}

// Fired returns the number of events dispatched. The count is deterministic:
// it is identical at every lane-group count. A wall clock's is in Stats.
func (x *LaneExecutor) Fired() uint64 { return x.ctrl.fired + x.FiredLanes() }

// Pending returns the number of queued events. A wall clock's is in Stats.
func (x *LaneExecutor) Pending() int {
	n := x.ctrl.q.len()
	for _, l := range x.lanes {
		n += l.q.len()
	}
	return n
}

// Schedule registers a control event: it runs serially at the barrier with
// all lanes parked, so the callback may touch cross-module state (boards,
// policy, worker pools) freely. Hosts use it for sync ticks, scaling ticks,
// injected failures and their own timers. A time before the frontier is
// raised to it; fn receives the event's due instant. name labels the call
// for its reader and is not kept: an event carries no string. Must not be
// called from lane callbacks. On the wall clock it is safe for concurrent
// use.
func (x *LaneExecutor) Schedule(at time.Duration, name string, fn func(now time.Duration)) {
	x.scheduleLaneEvent(-1, -1, at, fnEvent(fn))
}

// ScheduleHandler registers h as a control event at time at, in the same
// (timestamp, schedule order) as Schedule's callbacks. It allocates nothing.
func (x *LaneExecutor) ScheduleHandler(at time.Duration, h Handler) {
	x.scheduleLaneEvent(-1, -1, at, laneEvent{h: h})
}

// Ticker repeatedly schedules fn on the control lane every period until the
// predicate returns false. The first tick fires at Now()+period.
func (x *LaneExecutor) Ticker(period time.Duration, name string, fn func(now time.Duration) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sched: Ticker period must be positive, got %v", period))
	}
	var tick func(time.Duration)
	tick = func(now time.Duration) {
		if !fn(now) {
			return
		}
		x.Schedule(now+period, name, tick)
	}
	x.Schedule(x.frontier+period, name, tick)
}

// Reserve makes room for n host-scheduled events on lane dst, or on the
// control lane when dst is -1: a trace of arrivals then lands in one array,
// not in one grown a quarter at a time.
func (x *LaneExecutor) Reserve(dst, n int) {
	switch {
	case dst < 0:
		x.ctrl.q.reserve(n)
	case x.tr == nil || x.topo.owns(dst):
		x.lanes[dst].q.reserve(n)
	}
}

// scheduleLaneEvent registers ev on lane dst (-1: the control lane) at
// absolute time at. src identifies the calling context: the executing lane,
// or -1 for host/control/barrier context (every lane parked). Host and
// control-context schedules insert directly — on the wall clock through the
// drainer's inbox; a running lane's schedule on itself goes to its heap, and
// one on another lane is a post, in the destination's window band — or, when
// another group owns the destination, encoded for the barrier exchange. The
// event travels by value the whole way, so the steady-state hot path
// allocates nothing.
func (x *LaneExecutor) scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent) {
	if src < 0 && x.wall != nil {
		x.wall.post(x, dst, at, ev)
		return
	}
	if src < 0 || !x.running {
		x.insert(dst, at, ev)
		return
	}
	from := x.lanes[src]
	if at < from.now {
		at = from.now
	}
	switch {
	case src == dst:
		from.q.pushHeap(at, ev) // a batch end or warm-up, far ahead of the posts to come: see laneQueue
	case x.tr == nil || x.topo.owns(dst):
		x.lanes[dst].q.post(at, src, ev)
	default:
		wp, err := encodeWirePost(src, dst, at, ev)
		if err != nil {
			x.fail(err)
			return
		}
		x.wireOut = append(x.wireOut, wp)
	}
}

// insert queues a host- or control-context event on lane dst (-1: the
// control lane), no earlier than the frontier.
func (x *LaneExecutor) insert(dst int, at time.Duration, ev laneEvent) {
	at = max(at, x.frontier)
	if dst < 0 {
		x.ctrl.q.push(at, ev)
		return
	}
	if x.tr != nil {
		// Host/control context is replicated across lane groups: every
		// group executes this schedule, so every group learns here — with
		// no exchange — that some lane's head may have dropped to at, and
		// only the lane's owner enqueues the event: its identical copy is
		// the one that runs.
		if !x.ctxOK || at < x.ctxAt {
			x.ctxAt, x.ctxOK = at, true
		}
		if !x.topo.owns(dst) {
			return
		}
	}
	x.lanes[dst].q.push(at, ev)
}

// takeWirePosts hands off this window's cross-group posts. The slice stays
// untouched until the barrier after next: a transport may pass it to peers
// by reference, and they are done reading it before this group's next
// exchange returns (see Transport). Two buffers alternate, so the steady
// state allocates nothing.
func (x *LaneExecutor) takeWirePosts() []WirePost {
	out := x.wireOut
	x.wireOut, x.wireSpare = x.wireSpare[:0], out
	return out
}

// closeBands ends every lane's window band (see laneQueue.close). The
// barrier hook does, once an exchange has brought the peers' posts in and
// before anything it commits can schedule; step does when there is no hook.
func (x *LaneExecutor) closeBands() {
	for _, l := range x.lanes {
		l.q.close()
	}
}

// encodeWirePost converts one cross-group post to its wire shape. Only a
// receive may cross the boundary; a Handler reaching the wire is a
// programming error and aborts the run loudly.
func encodeWirePost(src, dst int, at time.Duration, ev laneEvent) (WirePost, error) {
	if ev.h != nil || ev.req == nil {
		return WirePost{}, fmt.Errorf("sched: a lane %d → %d event at %v (%T) cannot cross lane groups: only receives are wire-shaped", src, dst, at, ev.h)
	}
	return WirePost{At: at, Src: int32(src), Dst: int32(dst), Req: ev.req.ID}, nil
}

// minLane returns the low watermark: the earliest pending lane timestamp.
func (x *LaneExecutor) minLane() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, l := range x.lanes {
		if at, has := l.q.peek(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// runControl fires every control event at exactly time t, including ones the
// callbacks schedule at t. The barrier hook runs after each event, so the
// event's terminations commit — in lockstep on every replica — before the
// next event reads them.
func (x *LaneExecutor) runControl(t time.Duration) {
	for {
		it, inHeap := x.ctrl.q.front()
		if it == nil || it.at != t {
			return
		}
		ev := it.ev
		x.ctrl.q.take(inHeap)
		if t > x.ctrl.now {
			x.ctrl.now = t
		}
		x.ctrl.fired++
		ev.h.Fire(t)
		if x.barrierFn != nil {
			if err := x.barrierFn(); err != nil {
				x.fail(err)
			}
		}
		if x.err != nil {
			return
		}
	}
}

// runWindow executes every lane over [lo, hi), one after another. Lanes touch
// disjoint state inside a window (cross-lane effects are mailbox- or
// barrier-mediated), so their order cannot change the outcome. A lane with
// no event due in the window is passed over without a call.
func (x *LaneExecutor) runWindow(lo, hi time.Duration) {
	for _, l := range x.lanes {
		if at, ok := l.q.peek(); ok && (at < hi || at == lo) {
			l.run(lo, hi)
		}
	}
}

// noteBarrier derives the next global low watermark from one all-gathered
// barrier round: the minimum over every group's reported lane head and over
// every cross-group post about to be delivered. It also verifies that the
// replicated control lanes agreed when the messages were built — diverging
// control queues abort the run, never silently drift.
func (x *LaneExecutor) noteBarrier(all []BarrierMsg) error {
	if len(all) != x.topo.Groups {
		return fmt.Errorf("sched: barrier exchange returned %d contributions for %d lane groups", len(all), x.topo.Groups)
	}
	own := &all[x.topo.Group]
	x.wmAt, x.wmOK = 0, false
	for i := range all {
		m := &all[i]
		if m.CtrlOK != own.CtrlOK || (own.CtrlOK && m.CtrlAt != own.CtrlAt) {
			return fmt.Errorf("sched: control-lane divergence: group %d next control (%v,%t), group %d (%v,%t)",
				x.topo.Group, own.CtrlAt, own.CtrlOK, m.Group, m.CtrlAt, m.CtrlOK)
		}
		if m.LaneOK && (!x.wmOK || m.LaneAt < x.wmAt) {
			x.wmAt, x.wmOK = m.LaneAt, true
		}
		for j := range m.Posts {
			if at := m.Posts[j].At; !x.wmOK || at < x.wmAt {
				x.wmAt, x.wmOK = at, true
			}
		}
	}
	x.wmFresh = true
	return nil
}

// globalWatermark returns the low watermark over every group's owned lanes
// at the loop head. Once an exchange of the previous iteration has carried
// the groups' heads it costs no round trip: between the moment those
// messages were built and now, a lane head can only have been lowered by the
// delivered posts (in the gathered reply) or by a control-context schedule
// made while the merged commit was applied (replicated, tracked in
// scheduleLaneEvent). The Step exchange remains for the opening rendezvous,
// and for any iteration that made no barrier exchange.
func (x *LaneExecutor) globalWatermark(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) (time.Duration, bool) {
	at, ok := x.wmAt, x.wmOK
	if x.ctxOK && (!ok || x.ctxAt < at) {
		at, ok = x.ctxAt, true
	}
	fresh := x.wmFresh
	x.wmFresh, x.ctxOK = false, false
	if fresh && !verifyWatermark {
		return at, ok
	}
	sAt, sOK := x.stepExchange(tCtrl, okC, tLane, okL)
	if fresh && x.err == nil && (sOK != ok || (ok && sAt != at)) {
		x.fail(fmt.Errorf("sched: group %d derived low watermark (%v,%t) from the barrier, a step exchange says (%v,%t)",
			x.topo.Group, at, ok, sAt, sOK))
	}
	return sAt, sOK
}

// stepExchange all-reduces the step state across lane groups: it verifies
// the replicated control lane is in lockstep (aborting on divergence —
// never drifting silently) and returns the global low watermark over every
// group's owned lanes.
func (x *LaneExecutor) stepExchange(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) (time.Duration, bool) {
	all, err := x.tr.Step(StepMsg{
		Group:  int32(x.topo.Group),
		CtrlAt: tCtrl, CtrlOK: okC,
		LaneAt: tLane, LaneOK: okL,
	})
	if err != nil {
		x.fail(err)
		return 0, false
	}
	gLane, gOK := time.Duration(0), false
	for _, m := range all {
		if m.CtrlOK != okC || (okC && m.CtrlAt != tCtrl) {
			x.fail(fmt.Errorf("sched: control-lane divergence: group %d next control (%v,%t), group %d (%v,%t)",
				x.topo.Group, tCtrl, okC, m.Group, m.CtrlAt, m.CtrlOK))
			return 0, false
		}
		if m.LaneOK && (!gOK || m.LaneAt < gLane) {
			gLane, gOK = m.LaneAt, true
		}
	}
	return gLane, gOK
}

// next returns the control lane's head and the low watermark. On a
// multi-group topology the watermark is global, and every call is one loop
// head of the lockstep (see globalWatermark).
func (x *LaneExecutor) next() (tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) {
	tCtrl, okC = x.ctrl.q.peek()
	tLane, okL = x.minLane()
	if x.tr != nil {
		// The control queues must agree exactly (they are replicated),
		// which every exchange verifies.
		tLane, okL = x.globalWatermark(tCtrl, okC, tLane, okL)
	}
	return
}

// stepAt returns the instant of the step next's heads call for.
func stepAt(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) time.Duration {
	if okC && (!okL || tCtrl <= tLane) {
		return tCtrl
	}
	return tLane
}

// step runs one step: the control round at tCtrl — control precedes lane
// events at equal timestamps — or the window from the low watermark tLane,
// whose barrier runs the barrier hook, which closes the window's post bands.
// At least one of okC and okL holds.
func (x *LaneExecutor) step(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) {
	if okC && (!okL || tCtrl <= tLane) {
		x.frontier, x.now = tCtrl, max(x.now, tCtrl)
		x.runControl(tCtrl)
		return
	}
	x.now = max(x.now, tLane)
	hi := tLane + x.lookahead
	if okC && tCtrl < hi {
		hi = tCtrl
	}
	if hi < tLane {
		hi = tLane // zero lookahead: the window is the watermark itself
	}
	x.runWindow(tLane, hi)
	switch {
	case x.barrierFn == nil:
		x.closeBands()
	case x.err == nil:
		if err := x.barrierFn(); err != nil {
			x.fail(err)
		}
	}
	if hi > x.frontier {
		x.frontier = hi
	}
}

// runTo runs every step whose instant is at or before t on a stepped clock.
func (x *LaneExecutor) runTo(t time.Duration) {
	if x.wall != nil {
		panic("sched: the wall clock steps itself")
	}
	x.running = true
	for x.err == nil {
		tCtrl, okC, tLane, okL := x.next()
		if x.err != nil || !okC && !okL || stepAt(tCtrl, okC, tLane, okL) > t {
			break
		}
		x.step(tCtrl, okC, tLane, okL)
	}
	x.running = false
}

// Run steps until every queue drains and returns the frontier. Multi-group
// hosts must check Err afterwards: a transport failure or lockstep
// divergence aborts the loop cleanly.
func (x *LaneExecutor) Run() time.Duration {
	x.runTo(math.MaxInt64)
	return x.frontier
}

// RunUntil runs every step whose instant is at or before t — whole windows,
// which may hold events past t — then advances the clock to t. Callbacks may
// schedule further events, which run in the same pass when due.
func (x *LaneExecutor) RunUntil(t time.Duration) {
	x.runTo(t)
	x.now, x.frontier = max(x.now, t), max(x.frontier, t)
}

// FiredControl returns the replicated control-lane event count.
func (x *LaneExecutor) FiredControl() uint64 { return x.ctrl.fired }

// FiredLanes returns the event count of this executor's (owned) lanes.
func (x *LaneExecutor) FiredLanes() uint64 {
	n := uint64(0)
	for _, l := range x.lanes {
		n += l.fired
	}
	return n
}
