package sched

import (
	"fmt"
	"slices"
	"time"
)

// ShardedExecutor executes the scheduling core with the global event heap
// partitioned into per-module lanes (one laneQueue per module: a monotone run
// beside a small min-heap, see lanequeue.go) plus a serial control lane for
// cluster-wide events (state sync, scaling, injected failures). One thread
// advances the lanes, one after another, through lookahead windows under a
// low-watermark barrier; the windows are the contract for when a module's
// effects become visible to the others:
//
//   - Within a lane, events fire in (timestamp, insertion-order) order, the
//     global-queue executors' contract (exec.go).
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
//   - Control events run at the barrier with every lane parked, and take
//     precedence over lane events at equal timestamps.
//
// With a zero lookahead the window degenerates to a single timestamp and
// same-time cross-lane messages are exchanged through fixpoint sub-rounds.
//
// A ShardedExecutor is single-use: build, schedule initial events, Run.
//
// With a multi-group Topology (NewShardedExecutorTopo), the executor is one
// lane group of a replicated cluster: it executes only the lanes it owns,
// exchanges its cross-group mailbox posts — and, riding on the same message,
// its lane heads — through the Transport at every barrier, derives the next
// global low watermark from the gathered replies, and verifies control-lane
// lockstep against its peers — see transport.go for the distribution model.
// The single-group path never touches the Transport and is bit- and
// allocation-identical to the pre-topology executor.
type ShardedExecutor struct {
	lookahead time.Duration

	lanes []*laneState
	ctrl  *laneState

	frontier time.Duration
	running  bool
	fired    uint64

	barrierFn func() error
	sending   []*laneState // barrier-scope scratch: the lanes with posts to merge
	posted    bool         // some lane posted to its outbox since the last merge

	// Lane-group state (zero/nil on the single-group path).
	topo      Topology
	tr        Transport
	err       error      // first transport/lockstep error; aborts the run
	wireOut   []WirePost // this window's cross-group posts (handed off per barrier)
	wireSpare []WirePost // the previous barrier's posts, possibly still read by peers
	staged    []post     // this barrier's local + decoded remote posts
	laneFired uint64

	// The next global low watermark, as derived from the last barrier
	// exchange (see noteBarrier) and from the control-context schedules made
	// since the loop head (see scheduleLaneEvent). wmFresh is false until an
	// exchange of the current iteration has refreshed it.
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
	id    int
	q     laneQueue
	now   time.Duration
	fired uint64

	// outbox collects cross-lane sends made while this lane executes; sent
	// counts those the barrier's merge has taken (see flushOutboxes).
	outbox []post
	sent   int
}

func newLaneState(id int) *laneState {
	return &laneState{id: id}
}

// push inserts an event; insertion order breaks timestamp ties (laneQueue
// numbers its pushes).
func (l *laneState) push(at time.Duration, ev laneEvent) {
	l.q.push(at, ev)
}

// peek returns the next pending timestamp.
func (l *laneState) peek() (time.Duration, bool) {
	return l.q.peek()
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

// NewShardedExecutor builds an executor with one lane per module. lookahead
// is the minimum cross-lane event delay — the cluster's per-hop network
// delay — and bounds how far lanes may run ahead of the low watermark.
func NewShardedExecutor(lanes int, lookahead time.Duration) *ShardedExecutor {
	if lanes < 1 {
		panic(fmt.Sprintf("sched: sharded executor needs >= 1 lanes, got %d", lanes))
	}
	if lookahead < 0 {
		lookahead = 0
	}
	x := &ShardedExecutor{
		lookahead: lookahead,
		ctrl:      newLaneState(-1),
		sending:   make([]*laneState, 0, lanes),
	}
	for i := 0; i < lanes; i++ {
		x.lanes = append(x.lanes, newLaneState(i))
	}
	return x
}

// NewShardedExecutorTopo builds an executor running one lane group of a
// multi-group topology over the given transport. With a single-group
// topology the transport may be nil and the executor is identical to
// NewShardedExecutor's.
func NewShardedExecutorTopo(lanes int, lookahead time.Duration, topo Topology, tr Transport) (*ShardedExecutor, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if !topo.single() && tr == nil {
		return nil, fmt.Errorf("sched: %d lane groups need a transport", topo.Groups)
	}
	x := NewShardedExecutor(lanes, lookahead)
	x.topo = topo
	if !topo.single() {
		x.tr = tr
	}
	return x, nil
}

// Topology returns the executor's lane-group placement (zero value on the
// single-group path).
func (x *ShardedExecutor) Topology() Topology { return x.topo }

// Err returns the error that aborted the run, if any: a transport failure,
// a control-lane lockstep divergence, or a non-wire event reaching the
// group boundary. Multi-group hosts must check it after Run.
func (x *ShardedExecutor) Err() error { return x.err }

// fail records the first fatal error and poisons the transport so peer
// groups abort instead of hanging at their next rendezvous.
func (x *ShardedExecutor) fail(err error) {
	if err == nil || x.err != nil {
		return
	}
	x.err = err
	if x.tr != nil {
		x.tr.Abort(err)
	}
}

// Now returns the executor's committed virtual time (the barrier frontier).
// Lane callbacks should use the time passed to them, which may run ahead of
// the frontier inside a window.
func (x *ShardedExecutor) Now() time.Duration { return x.frontier }

// Fired returns the number of events dispatched. The count is deterministic:
// it is identical at every lane-group count.
func (x *ShardedExecutor) Fired() uint64 { return x.fired }

// Schedule registers a control event: it runs serially at the barrier with
// all lanes parked, so the callback may touch cross-module state (boards,
// policy, worker pools) freely. Hosts use it for sync ticks, scaling ticks
// and injected failures. Must not be called from lane callbacks.
func (x *ShardedExecutor) Schedule(at time.Duration, name string, fn func(now time.Duration)) {
	if at < x.frontier {
		at = x.frontier
	}
	x.ctrl.push(at, fnEvent(fn))
}

// Ticker repeatedly schedules fn on the control lane every period until the
// predicate returns false. The first tick fires at Now()+period.
func (x *ShardedExecutor) Ticker(period time.Duration, name string, fn func(now time.Duration) bool) {
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

// Reserve makes room for n host-scheduled events on lane dst (where this group enqueues them).
func (x *ShardedExecutor) Reserve(dst, n int) {
	if x.tr == nil || x.topo.owns(dst) {
		x.lanes[dst].q.reserve(n)
	}
}

// scheduleLaneEvent registers ev on lane dst at absolute time at. src
// identifies the calling context: the executing lane, or -1 for
// host/control/barrier context (every lane parked). Same-lane and
// control-context schedules insert directly; cross-lane schedules from a
// running lane are posted to the source lane's outbox and delivered at the
// window barrier in mailbox order. The event travels by value the whole way,
// so the steady-state hot path allocates nothing.
func (x *ShardedExecutor) scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent) {
	l := x.lanes[dst]
	if src < 0 || !x.running {
		if at < x.frontier {
			at = x.frontier
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
		l.push(at, ev)
		return
	}
	from := x.lanes[src]
	if at < from.now {
		at = from.now
	}
	if src == dst {
		l.q.pushHeap(at, ev) // a batch end or warm-up, far ahead of the posts to come: see laneQueue
		return
	}
	from.outbox = append(from.outbox, post{src: src, dst: dst, at: at, ev: ev})
	x.posted = true
}

// setBarrierHook registers fn to run, with all lanes parked, after every
// window barrier's mailbox delivery and after every control event. The
// cluster uses it to commit deferred drop/completion intents in
// deterministic order — a control event's as well as a window's, so its
// replicas stay lockstep-identical between events; in a multi-group topology
// the hook also performs the barrier exchange, and its error aborts the run.
func (x *ShardedExecutor) setBarrierHook(fn func() error) { x.barrierFn = fn }

// takeWirePosts hands off this window's cross-group posts. The slice stays
// untouched until the barrier after next: a transport may pass it to peers
// by reference, and they are done reading it before this group's next
// exchange returns (see Transport). Two buffers alternate, so the steady
// state allocates nothing.
func (x *ShardedExecutor) takeWirePosts() []WirePost {
	out := x.wireOut
	x.wireOut, x.wireSpare = x.wireSpare[:0], out
	return out
}

// stagePost adds one post (local, or decoded from a peer group) to the
// barrier's pending delivery set.
func (x *ShardedExecutor) stagePost(p post) { x.staged = append(x.staged, p) }

// deliverStaged pushes the staged posts into their destination lanes in
// mailbox order. Equal (time, source) runs never span groups — a source
// lane lives in exactly one group — so the stable sort reproduces the exact
// single-process delivery order regardless of group count.
func (x *ShardedExecutor) deliverStaged() {
	if len(x.staged) == 0 {
		return
	}
	sortPosts(x.staged)
	for i := range x.staged {
		p := &x.staged[i]
		x.lanes[p.dst].push(p.at, p.ev)
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
func (x *ShardedExecutor) minLane() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, l := range x.lanes {
		if at, has := l.peek(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// runControl fires every control event at exactly time t, including ones the
// callbacks schedule at t. The barrier hook runs after each event, so the
// event's terminations commit — in lockstep on every replica — before the
// next event reads them.
func (x *ShardedExecutor) runControl(t time.Duration) {
	for {
		at, ok := x.ctrl.peek()
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
func (x *ShardedExecutor) runWindow(lo, hi time.Duration) {
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
func (x *ShardedExecutor) flushOutboxes() {
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
func (x *ShardedExecutor) deliver(p *post) {
	switch {
	case x.tr == nil:
		x.lanes[p.dst].push(p.at, p.ev)
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
func (x *ShardedExecutor) heads() (ctrlAt time.Duration, ctrlOK bool, laneAt time.Duration, laneOK bool) {
	ctrlAt, ctrlOK = x.ctrl.peek()
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
func (x *ShardedExecutor) noteBarrier(all []BarrierMsg) error {
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
func (x *ShardedExecutor) globalWatermark(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) (time.Duration, bool) {
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
func (x *ShardedExecutor) stepExchange(tCtrl time.Duration, okC bool, tLane time.Duration, okL bool) (time.Duration, bool) {
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

// Run drives the event loop to completion: alternating control rounds and
// barrier-synchronized lane windows until every queue drains. It returns the
// final virtual time. Multi-group hosts must check Err afterwards: a
// transport failure or lockstep divergence aborts the loop cleanly.
func (x *ShardedExecutor) Run() time.Duration {
	if x.running {
		panic("sched: ShardedExecutor.Run called twice")
	}
	x.running = true
	defer func() {
		x.running = false
		lane := uint64(0)
		for _, l := range x.lanes {
			lane += l.fired
		}
		x.laneFired = lane
		x.fired = x.ctrl.fired + lane
	}()
	for x.err == nil {
		tCtrl, okC := x.ctrl.peek()
		tLane, okL := x.minLane()
		if x.tr != nil {
			// The watermark is a global minimum over every group's owned
			// lanes; the control queues must agree exactly (they are
			// replicated), which every exchange verifies.
			tLane, okL = x.globalWatermark(tCtrl, okC, tLane, okL)
			if x.err != nil {
				break
			}
		}
		switch {
		case !okC && !okL:
			return x.frontier
		case okC && (!okL || tCtrl <= tLane):
			// Control precedes lane events at equal timestamps.
			x.frontier = tCtrl
			x.runControl(tCtrl)
		default:
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
	}
	return x.frontier
}

// FiredControl returns the replicated control-lane event count.
func (x *ShardedExecutor) FiredControl() uint64 { return x.ctrl.fired }

// FiredLanes returns the event count of this executor's (owned) lanes.
func (x *ShardedExecutor) FiredLanes() uint64 { return x.laneFired }
