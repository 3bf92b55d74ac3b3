package sched

import (
	"fmt"
	"math"
	"slices"
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
//   - Within a lane, events fire in (timestamp, insertion-order) order.
//   - Lanes advance together through windows [low, high): low is the minimum
//     pending lane timestamp across all lanes (the low watermark), high is
//     low + lookahead, clamped to the next control event. Cross-lane
//     messages travel at least one network hop (lookahead = the per-hop
//     delay), so nothing produced inside a window can be consumed inside it:
//     the order in which a window's lanes run is unobservable.
//   - Cross-lane events (batch hand-off, DAG fan-out/merge hops) are posted
//     to per-lane outboxes and merged at the window barrier into their
//     destination lanes in (virtual time, source module, sequence) order.
//   - A termination decided inside a window is seen at once by the module
//     that decided it and by every other module from the barrier on, when
//     it commits (mailbox.go).
//   - Control events run at the barrier with every lane parked, in
//     (timestamp, schedule order), and take precedence over lane events at
//     equal timestamps.
//
// With a zero lookahead the window degenerates to a single timestamp and
// same-time cross-lane messages are exchanged through fixpoint sub-rounds.
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
// exchanges its cross-group mailbox posts — and, riding on the same message,
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
	sending   []*laneState // barrier-scope scratch: the lanes with posts to merge
	posted    bool         // some lane posted to its outbox since the last merge

	wall *wallClock // the wall clock's drainer state; nil on a stepped clock

	// Lane-group state (zero/nil on the single-group path).
	topo      Topology
	tr        Transport
	err       error      // first transport/lockstep error; aborts the run
	wireOut   []WirePost // this window's cross-group posts (handed off per barrier)
	wireSpare []WirePost // the previous barrier's posts, possibly still read by peers
	staged    []post     // this barrier's local + decoded remote posts

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

// laneEvent is one scheduled event inside a lane. The hot-path kinds —
// request arrivals and hops, batch completions, worker warmups — are
// encoded as typed ops dispatched by fire, so scheduling one moves a plain
// value through the lane queues and mailboxes with no per-event closure
// allocation. Host and control events carry a Handler: a host's own typed
// event (the RAG case study's stage completions), or a plain callback (sync
// ticks, failures) wrapped by fnEvent. The event carries no label — a Schedule
// call's name stays at the call site — so a queued item is 64 bytes.
type laneEvent struct {
	h   Handler // opHandler only
	op  laneOp
	m   *module  // opReceive destination
	w   *worker  // opBatchEnd / opWarmup worker
	req *Request // opReceive payload
}

// laneOp tags a laneEvent's dispatch kind.
type laneOp uint8

const (
	opHandler  laneOp = iota // h.Fire(now)
	opReceive                // m.receive(req, now): arrivals and cross-module hops
	opBatchEnd               // w.batchEnd(now)
	opWarmup                 // w.pump(now): cold-start wakeup
)

// fire dispatches the event at virtual time now.
func (ev *laneEvent) fire(now time.Duration) {
	switch ev.op {
	case opReceive:
		ev.m.receive(ev.req, now)
	case opBatchEnd:
		ev.w.batchEnd(now)
	case opWarmup:
		ev.w.pump(now)
	default:
		ev.h.Fire(now)
	}
}

// laneState is one event lane: a min-ordered queue (keyed by timestamp,
// FIFO-tied by insertion) plus the lane-local clock and this window's outbox.
type laneState struct {
	q     laneQueue
	now   time.Duration
	fired uint64

	// outbox collects cross-lane sends made while this lane executes; sent
	// counts those the barrier's merge has taken (see flushOutboxes).
	outbox []post
	sent   int
}

// run fires every pending event with timestamp < hi — or == lo, which
// guarantees progress when the lookahead is zero — including events the
// callbacks push onto this same lane.
func (l *laneState) run(lo, hi time.Duration) {
	for {
		at, ok := l.q.peek()
		if !ok || (at >= hi && at != lo) {
			return
		}
		ev := l.q.pop()
		if at > l.now {
			l.now = at
		}
		l.fired++
		ev.fire(l.now)
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
	x.sending = make([]*laneState, 0, n)
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

// attach binds a cluster of n modules, hop apart, to the executor: an
// executor built without lanes (the manual and the wall clock) gets one per
// module with the hop as its lookahead, and barrier becomes the hook the
// executor runs after every window and every control event.
func (x *LaneExecutor) attach(n int, hop time.Duration, barrier func() error) error {
	switch {
	case x.barrierFn != nil:
		return fmt.Errorf("sched: the executor already runs a cluster")
	case len(x.lanes) == 0 && x.wall != nil && hop > 0:
		// A window spans the hop; on the wall clock its later events would
		// fire at the window's start, ahead of their instants.
		return fmt.Errorf("sched: the wall clock runs windows of one instant, not a %v hop", hop)
	case len(x.lanes) == 0:
		x.addLanes(n, hop)
		// A host's queues live as long as it does: room up front.
		for _, l := range x.lanes {
			l.q.reserve(32)
			l.outbox = make([]post, 0, 32)
		}
		x.ctrl.q.reserve(32)
	case len(x.lanes) != n:
		return fmt.Errorf("sched: executor has %d lanes for %d modules", len(x.lanes), n)
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
// drainer's inbox; cross-lane schedules from a running lane are posted to the
// source lane's outbox and delivered at the window barrier in mailbox order.
// The event travels by value the whole way, so the steady-state hot path
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
	if src == dst {
		from.q.pushHeap(at, ev) // a batch end or warm-up, far ahead of the posts to come: see laneQueue
		return
	}
	from.outbox = append(from.outbox, post{src: src, dst: dst, at: at, ev: ev})
	x.posted = true
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

// stagePost adds one post (local, or decoded from a peer group) to the
// barrier's pending delivery set.
func (x *LaneExecutor) stagePost(p post) { x.staged = append(x.staged, p) }

// deliverStaged pushes the staged posts into their destination lanes in
// mailbox order. Equal (time, source) runs never span groups — a source
// lane lives in exactly one group — so the stable sort reproduces the exact
// single-process delivery order regardless of group count.
func (x *LaneExecutor) deliverStaged() {
	if len(x.staged) == 0 {
		return
	}
	sortPosts(x.staged)
	for i := range x.staged {
		p := &x.staged[i]
		x.lanes[p.dst].q.push(p.at, p.ev)
	}
	x.staged = x.staged[:0]
}

// encodeWirePost converts one cross-group post to its wire shape. Only the
// typed receive op may cross the boundary; a closure reaching the wire is a
// programming error and aborts the run loudly.
func encodeWirePost(p *post) (WirePost, error) {
	if p.ev.op != opReceive || p.ev.h != nil || p.ev.req == nil {
		return WirePost{}, fmt.Errorf("sched: a lane %d → %d event at %v (op %d) cannot cross lane groups: only typed receive events are wire-shaped", p.src, p.dst, p.at, p.ev.op)
	}
	return WirePost{At: p.at, Src: int32(p.src), Dst: int32(p.dst), Req: p.ev.req.ID}, nil
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
		at, ok := x.ctrl.q.peek()
		if !ok || at != t {
			return
		}
		ev := x.ctrl.q.pop()
		if t > x.ctrl.now {
			x.ctrl.now = t
		}
		x.ctrl.fired++
		ev.fire(t)
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

// flushOutboxes delivers every lane's outbox into the destination lanes in
// mailbox order: (virtual time, source module, send sequence). Insertion
// order assigns the destination-lane FIFO tiebreak, so delivery — and
// everything downstream of it — is deterministic. A lane's clock is monotone
// and the hop delay constant, so each outbox is already in time order (one a
// host closure posted to out of order is stably sorted first) and mailbox
// order is a merge: the earliest head wins, the lowest source lane among
// equals.
func (x *LaneExecutor) flushOutboxes() {
	from := x.sending[:0]
	for _, l := range x.lanes {
		if len(l.outbox) == 0 {
			continue
		}
		for i := 1; i < len(l.outbox); i++ {
			if l.outbox[i].at < l.outbox[i-1].at {
				sortPosts(l.outbox) // one source lane: by time, send order kept
				break
			}
		}
		from = append(from, l)
	}
	x.sending = from[:0]
	for len(from) > 0 && x.err == nil {
		first := 0
		for i := 1; i < len(from); i++ {
			// from is in lane order, so only strictly earlier beats a lower lane.
			if from[i].outbox[from[i].sent].at < from[first].outbox[from[first].sent].at {
				first = i
			}
		}
		l := from[first]
		x.deliver(&l.outbox[l.sent])
		if l.sent++; l.sent == len(l.outbox) {
			from = slices.Delete(from, first, first+1)
		}
	}
	for _, l := range x.lanes {
		l.outbox, l.sent = l.outbox[:0], 0
	}
	x.posted = false
}

// deliver routes one merged post: into its destination lane, or — multi-group
// — staged until the barrier exchange has brought the peers' posts, or, when
// another group owns the destination, encoded for that exchange.
func (x *LaneExecutor) deliver(p *post) {
	switch {
	case x.tr == nil:
		x.lanes[p.dst].q.push(p.at, p.ev)
	case x.topo.owns(p.dst):
		x.staged = append(x.staged, *p)
	default:
		wp, err := encodeWirePost(p)
		if err != nil {
			x.fail(err)
			return
		}
		x.wireOut = append(x.wireOut, wp)
	}
}

// heads returns what this group reports in a BarrierMsg: the replicated
// control lane's head and the earliest event this group will hold once the
// barrier's locally staged posts are delivered.
func (x *LaneExecutor) heads() (ctrlAt time.Duration, ctrlOK bool, laneAt time.Duration, laneOK bool) {
	ctrlAt, ctrlOK = x.ctrl.q.peek()
	laneAt, laneOK = x.minLane()
	for i := range x.staged {
		if at := x.staged[i].at; !laneOK || at < laneAt {
			laneAt, laneOK = at, true
		}
	}
	return
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
// whose barrier merges the outboxes and runs the barrier hook. At least one
// of okC and okL holds.
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
	if x.posted {
		x.flushOutboxes()
	}
	if x.barrierFn != nil && x.err == nil {
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
