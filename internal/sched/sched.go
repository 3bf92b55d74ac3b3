// Package sched is the shared scheduling core of the Fig. 4 architecture:
// per-module controllers (state windows, batch dispatcher, priority/drop
// decisions), worker pools with batch assembly, state-board synchronization,
// budget accounting, the scaling engine and DAG fan-out/merge routing.
//
// The core runs on one event loop, the lane engine (LaneExecutor: a lane per
// module plus a control lane, advanced through barrier-synchronized windows),
// on one of three clocks:
//
//   - the discrete-event simulator (internal/simgpu) runs it on a virtual
//     clock (NewLaneExecutor, Run),
//   - the live server (internal/server) on the wall clock (NewTimerExecutor),
//   - deterministic tests and the RAG case study on a clock they step by
//     hand (NewManualExecutor, RunUntil).
//
// Every host commits a termination one way, at the barrier, and every clock
// breaks equal-instant ties the same way, so a live shell replayed on the
// manual clock decides every request exactly as the simulator does: parity
// tests in internal/server require it request for request.
package sched

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/stats"
)

// Config describes one cluster instantiation of the scheduling core.
type Config struct {
	// Spec is the validated pipeline (chain or DAG).
	Spec *pipeline.Spec
	// Lib provides model profiles; hosts pass their library explicitly
	// (no default is applied here).
	Lib *profile.Library
	// PolicyName selects the drop policy (see policy.Names()).
	PolicyName string
	// Seed derives the core's independent random streams. Execution jitter
	// and DAG branch choice use per-module streams hashed from (seed,
	// module, purpose) — module-local randomness is what lets the lane
	// engine advance modules lane by lane without the lane order deciding a
	// shared stream's draws. Policy internals keep the shared
	// seed+4 stream (drawn only in serial contexts: sync ticks and
	// source-module admission).
	Seed int64
	// Workers is the initial per-module worker count (required, each in
	// [1, PoolLimit]).
	Workers []int
	// NetDelay is the per-hop transfer delay between modules (>= 0).
	NetDelay time.Duration
	// JitterPct multiplies execution durations by 1 ± U[0,JitterPct]
	// (0 disables jitter unless the model profile carries its own).
	JitterPct float64
	// Probes selects optional recordings.
	Probes ProbeConfig
	// Lambda overrides the PARD estimator quantile when > 0.
	Lambda float64
	// PriorityWindow overrides the priority smoothing window when > 0.
	PriorityWindow time.Duration

	// OnDone, when set, observes each request completing the sink module.
	OnDone func(req *Request, now time.Duration)
	// OnDrop, when set, observes each request dropped at a module.
	OnDrop func(req *Request, module int, now time.Duration)

	// Resolve maps a wire request ID onto this process's replica of the
	// Request. Required when the executor runs a multi-group topology
	// (every group holds the full request slab; requests cross the group
	// boundary by ID); unused otherwise.
	Resolve func(id uint64) *Request
}

// Cluster is one instantiated scheduling core: the controller + worker pool
// per module of Fig. 4, driven by a LaneExecutor. All methods must be called
// from the executor's serial context (or before it starts running).
type Cluster struct {
	cfg  Config
	exec *LaneExecutor
	pol  policy.Policy
	// reads is what module state the policy reads: a module keeps the
	// window behind a field only when the policy or a probe reads it.
	reads policy.Reads

	modules []*module
	board   *core.Board

	// pathRngs holds per-module deterministic streams for exclusive DAG
	// branch choice, nil for a module another lane group owns (the
	// execution jitter stream lives on the module itself).
	pathRngs []*rand.Rand
	jitter   float64

	batches []int
	durs    []time.Duration

	// desired is scaling-tick scratch, so a tick allocates nothing: the
	// per-module demands.
	desired []int
	// coldStart and maxWorkers are the scaling engine's constants of the
	// same names; New sets them, and only tests change them.
	coldStart  time.Duration
	maxWorkers int

	// Every termination becomes an intent in bridge, committed by the
	// executor's barrier hook after each window and each control event;
	// cross-module events travel through the executor's ordered mailbox.
	bridge *laneBridge
	// inControl marks a control callback (sync, scaling, injected
	// failures). Its terminations defer like a window's, but every module of
	// the event sees all of them at once (see retired). Only ever flipped
	// while every lane is parked.
	inControl bool

	// Multi-group topology (tr nil on the single-group path):
	// this cluster is one lane-group replica, exchanging board rows,
	// scaling demands, mailbox posts, charges and termination intents with
	// its peers through tr. See transport.go for the distribution model.
	topo    Topology
	tr      Transport
	resolve func(uint64) *Request
	// wireBufs are the barrier message's encode buffers. Two sets alternate
	// because a transport may hand a message's slices to peers by reference
	// until this group's next exchange has returned (see Transport).
	wireBufs [2]struct {
		intents []WireIntent
		charges []WireCharge
		merges  []WireMergeReset
	}
	wireCur int
	// boardRows and scaleRows hold this group's rows of the sync and scaling
	// exchanges. One set suffices: the barrier hook after every control
	// event is an exchange, so peers are done with one tick's rows — and
	// with the board slots a board row's samples point into — before the
	// next tick rewrites them (see Transport).
	boardRows []WireBoardRow
	scaleRows []WireScaleRow
}

// streamSeed derives module k's independent seed for one random stream from
// the cluster seed via FNV-64a, the same derivation style the sweep engine
// uses for per-run seeds: the hash of "seed|k|purpose" in decimal, computed
// inline over a stack buffer so that a cluster's setup does not allocate a
// hasher and a formatter per stream.
func streamSeed(seed int64, k int, purpose string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [48]byte // two decimal int64s and two separators
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, '|')
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * prime64
	}
	return int64(h)
}

// New validates the configuration and assembles the cluster on the executor.
// An executor built without lanes (the manual and the wall clock) gets one
// per module, cfg.NetDelay apart.
func New(cfg Config, exec *LaneExecutor) (*Cluster, error) {
	if exec == nil {
		return nil, fmt.Errorf("sched: nil executor")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("sched: config needs a pipeline spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lib == nil {
		return nil, fmt.Errorf("sched: config needs a profile library")
	}
	if cfg.PolicyName == "" {
		cfg.PolicyName = "pard"
	}
	if cfg.NetDelay < 0 {
		return nil, fmt.Errorf("sched: negative net delay %v", cfg.NetDelay)
	}
	if cfg.Probes.SampleEvery <= 0 {
		cfg.Probes.SampleEvery = 1
	}
	n := cfg.Spec.N()
	if err := CheckWorkers(cfg.Workers, n); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}

	batches, durs, err := TargetBatches(cfg.Spec, cfg.Lib, BatchFrac)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:     cfg,
		exec:    exec,
		board:   core.NewBoard(n),
		jitter:  cfg.JitterPct,
		batches: batches,
		durs:    durs,
		desired: make([]int, n),
		// The scaling engine's constants, as seams for tests.
		coldStart:  coldStart,
		maxWorkers: maxWorkers,
	}
	c.bridge = newLaneBridge(c, n)
	if exec.tr != nil {
		if cfg.Resolve == nil {
			return nil, fmt.Errorf("sched: a %d-group topology needs a Resolve hook (wire requests travel by ID)", exec.topo.Groups)
		}
		c.topo, c.tr, c.resolve = exec.topo, exec.tr, cfg.Resolve
	}
	c.pathRngs = make([]*rand.Rand, n)
	for k := range c.pathRngs {
		if c.owns(k) {
			c.pathRngs[k] = rand.New(rand.NewSource(streamSeed(cfg.Seed, k, "path")))
		}
	}

	pol, err := policy.New(cfg.PolicyName, policy.Setup{
		Spec:           cfg.Spec,
		Durs:           durs,
		Rng:            rand.New(rand.NewSource(cfg.Seed + 4)),
		Lambda:         cfg.Lambda,
		PriorityWindow: cfg.PriorityWindow,
	})
	if err != nil {
		return nil, err
	}
	c.pol = pol
	c.reads = pol.Reads()

	for k := 0; k < n; k++ {
		model, err := cfg.Lib.Get(cfg.Spec.Modules[k].Name)
		if err != nil {
			return nil, err
		}
		m := newModule(c, k, cfg.Spec.Modules[k], model, batches[k], durs[k], cfg.Workers[k])
		c.modules = append(c.modules, m)
	}
	if err := exec.attach(c.modules, cfg.NetDelay, c.barrier); err != nil {
		return nil, err
	}
	return c, nil
}

// N returns the module count.
func (c *Cluster) N() int { return len(c.modules) }

// Policy returns the cluster's drop policy.
func (c *Cluster) Policy() policy.Policy { return c.pol }

// Board returns the shared cross-module state board.
func (c *Cluster) Board() *core.Board { return c.board }

// TargetBatch returns module k's target batch size.
func (c *Cluster) TargetBatch(k int) int { return c.batches[k] }

// ProfiledDur returns module k's profiled duration at its target batch.
func (c *Cluster) ProfiledDur(k int) time.Duration { return c.durs[k] }

// PeakWorkers returns the maximum concurrently active workers seen at
// module k.
func (c *Cluster) PeakWorkers(k int) int { return c.modules[k].peakWorkers }

// ActiveWorkers returns module k's current dispatcher-eligible worker count.
func (c *Cluster) ActiveWorkers(k int) int { return c.modules[k].activeWorkers() }

// ModuleProbes bundles module k's optional probe outputs (nil / empty unless
// the corresponding probe was enabled in the config).
type ModuleProbes struct {
	QueueDelay  *metrics.Series
	Load        *metrics.Series
	Mode        *metrics.Series
	Budget      *metrics.Series
	Remain      *metrics.Series
	WaitSamples []float64
}

// Probes returns module k's probe outputs.
func (c *Cluster) Probes(k int) ModuleProbes {
	m := c.modules[k]
	p := ModuleProbes{
		QueueDelay: m.queueDelayProbe,
		Load:       m.loadProbe,
		Mode:       m.modeProbe,
		Budget:     m.budgetProbe,
		Remain:     m.remainProbe,
	}
	if m.waitProbe != nil {
		p.WaitSamples = append([]float64(nil), m.waitProbe.Values()...)
	}
	return p
}

// Reserve sizes every owned module's State Planner windows for a run whose
// requests are sent at the sorted times arrivals, so that they do not grow
// while it runs: the rate window, and those of the queueing-delay and WCL
// windows the module keeps, with the scratch publish copies WCL into. A
// module sees each request once, about one hop delay after its neighbours,
// so the trace's peak count within queueWindow, the span of every window
// (the rate window's inner span shares its timestamps), is what a window
// holds live, give or take the bunching the reservation's slack absorbs.
// Storage only: a window that outgrows it grows as an unreserved one (the
// live server's) does.
func (c *Cluster) Reserve(arrivals []time.Duration) {
	n := len(arrivals)
	peak := stats.PeakCount(arrivals, queueWindow)
	for _, m := range c.modules {
		if !c.owns(m.idx) {
			continue
		}
		if m.qWin != nil {
			m.qWin.Reserve(peak, n)
		}
		m.rateWin.Reserve(peak, n)
		if m.wclWin != nil {
			m.wclWin.Reserve(peak, n)
			m.wclScratch = make([]float64, 0, min(2*peak, n))
		}
	}
}

// Inject schedules the request's arrival at the source module, one network
// hop after sendAt. The caller owns the Request's identity fields (ID, Send,
// Deadline, DropModule).
func (c *Cluster) Inject(req *Request, sendAt time.Duration) {
	src := c.modules[c.cfg.Spec.Source()]
	c.exec.scheduleLaneEvent(-1, src.idx, sendAt+c.cfg.NetDelay, laneEvent{req: req})
}

// control brackets a serial control-context callback (sync, scaling,
// injected failures). Its terminations defer like a window's and
// commit when the control event ends, through the barrier hook the executor
// runs after every control event — on a multi-group topology the deciding
// group alone knows them until that hook's exchange. Inside the bracket every
// module sees every pending termination (see retired).
func (c *Cluster) control(fn func()) {
	c.inControl = true
	fn()
	c.inControl = false
}

// owns reports whether this cluster replica executes module k (always true
// outside a multi-group topology).
func (c *Cluster) owns(k int) bool { return c.topo.owns(k) }

// fail aborts a multi-group run from control context, poisoning the
// transport so peer groups unblock.
func (c *Cluster) fail(err error) { c.exec.fail(err) }

// ControlFlush commits the terminations (and charges) decided so far in the
// running control event, so the same callback can read them: a host whose
// control callback reads replicated state after mutating it (a ticker
// predicate checking for drained requests right after a sync tick) calls it
// first. It is the barrier hook, which the executor also runs when the event
// ends; on a multi-group topology it is an exchange, and an all-empty one
// (the common case) is a valid empty-drain round. Errors abort the run via
// the executor.
func (c *Cluster) ControlFlush() {
	if err := c.barrier(); err != nil {
		c.fail(err)
	}
}

// exchangeBarrier is the multi-group half of the barrier hook: all-gather
// this group's cross-group posts, pending termination intents, buffered
// charges and merge resets; post the incoming posts into their lanes' window
// bands and apply the peers' charges (integer sums — order-free) and merge
// resets. It returns the gathered messages, whose peer intents the caller
// commits with its own. After a control event posts is empty: control
// context schedules straight into the lanes. The message also carries this
// group's lane heads, from which every replica derives the next low watermark
// without a round trip of its own. The gathered slices may live in transport
// buffers that the next exchange overwrites: everything kept is copied out
// before the barrier returns.
func (c *Cluster) exchangeBarrier(posts []WirePost) ([]BarrierMsg, error) {
	buf := &c.wireBufs[c.wireCur]
	c.wireCur ^= 1
	buf.intents = c.bridge.encodeIntents(buf.intents[:0])
	buf.charges = c.encodeCharges(buf.charges[:0])
	buf.merges = c.encodeMergeResets(buf.merges[:0])
	msg := BarrierMsg{
		Group:   int32(c.topo.Group),
		Posts:   posts,
		Intents: buf.intents,
		Charges: buf.charges,
		Merges:  buf.merges,
	}
	msg.CtrlAt, msg.CtrlOK = c.exec.ctrl.q.peek()
	msg.LaneAt, msg.LaneOK = c.exec.minLane() // the window's posts to this group's lanes included
	all, err := c.tr.Barrier(msg)
	if err != nil {
		return nil, err
	}
	if err := c.exec.noteBarrier(all); err != nil {
		return nil, err
	}
	for i := range all {
		bm := &all[i]
		if int(bm.Group) == c.topo.Group {
			continue
		}
		for _, wp := range bm.Posts {
			if !c.owns(int(wp.Dst)) {
				continue
			}
			req := c.resolve(wp.Req)
			if req == nil {
				return nil, fmt.Errorf("sched: post for unknown request %d from group %d", wp.Req, bm.Group)
			}
			c.exec.lanes[wp.Dst].q.post(wp.At, int(wp.Src), laneEvent{req: req})
		}
	}
	for i := range all {
		if int(all[i].Group) == c.topo.Group {
			continue // this group's own charges and resets were applied as they were made
		}
		for _, wc := range all[i].Charges {
			req := c.resolve(wc.Req)
			if req == nil {
				return nil, fmt.Errorf("sched: charge for unknown request %d from group %d", wc.Req, all[i].Group)
			}
			req.charge(wc.GPU, wc.Q, wc.W, wc.D)
		}
		for _, wm := range all[i].Merges {
			req := c.resolve(wm.Req)
			if req == nil {
				return nil, fmt.Errorf("sched: merge reset for unknown request %d from group %d", wm.Req, all[i].Group)
			}
			req.resetMerge(int(wm.Expected))
		}
	}
	return all, nil
}

// encodeCharges drains every owned module's charges since the last barrier
// into out in wire shape, in (module, decision order). They were applied to
// this replica's Requests when made; the peers apply them from the message.
func (c *Cluster) encodeCharges(out []WireCharge) []WireCharge {
	for k, m := range c.modules {
		for i := range m.charges {
			ch := &m.charges[i]
			out = append(out, WireCharge{Mod: int32(k), Req: ch.req.ID, GPU: ch.gpu, Q: ch.q, W: ch.w, D: ch.d})
		}
		m.charges = m.charges[:0]
	}
	return out
}

// SyncTick runs one state-synchronization round (§4.1 steps ①-③): every
// module publishes its snapshot, the policy refreshes from the board, and
// priority probes record the outcome. On a lane-aware executor it must run
// in control context (all lanes parked): it reads and writes cross-module
// state freely. In a multi-group topology two sync ticks must not share one
// control event: the exchange that follows each event (the barrier hook) is
// what lets this tick's publications overwrite the last tick's rows.
func (c *Cluster) SyncTick(now time.Duration) {
	c.control(func() {
		// In a multi-group topology only owned modules have state to publish;
		// the board exchange below fills in the peers' rows before the
		// (replicated) policy refresh reads the full board.
		for _, m := range c.modules {
			if c.owns(m.idx) {
				m.publish(now, c.board)
			}
		}
		if err := c.exchangeBoard(); err != nil {
			c.fail(err)
			return
		}
		c.pol.OnSync(now, c.board)
		for _, m := range c.modules {
			if c.owns(m.idx) {
				m.probePriority(now, c.board)
			}
		}
	})
}

// exchangeBoard all-gathers the owned board rows so every replica's board —
// and therefore every replica's policy refresh — sees the identical
// cluster-wide state. No-op outside a multi-group topology.
func (c *Cluster) exchangeBoard() error {
	if c.tr == nil {
		return nil
	}
	rows := c.boardRows[:0]
	for k := range c.modules {
		if c.owns(k) {
			rows = append(rows, WireBoardRow{Mod: int32(k), State: c.board.Get(k)})
		}
	}
	c.boardRows = rows
	all, err := c.tr.Board(BoardMsg{Group: int32(c.topo.Group), Rows: rows})
	if err != nil {
		return err
	}
	for i := range all {
		if int(all[i].Group) == c.topo.Group {
			continue
		}
		for _, r := range all[i].Rows {
			c.board.Publish(int(r.Mod), r.State)
		}
	}
	return nil
}

// ScaleTick runs one scaling-engine round: every module moves its pool
// toward its demand from recent input rates. The simulator ticks it every
// ScalePeriod unless worker counts are pinned. In a multi-group topology, as
// with SyncTick, two scaling ticks must not share one control event.
func (c *Cluster) ScaleTick(now time.Duration) {
	c.control(func() {
		desired := c.desired
		clear(desired)
		for k, m := range c.modules {
			if c.owns(k) {
				desired[k] = m.desiredWorkers(now)
			}
		}
		if err := c.exchangeScale(desired); err != nil {
			c.fail(err)
			return
		}
		for k, m := range c.modules {
			if c.owns(k) {
				m.applyScale(now, desired[k])
			}
		}
	})
}

// exchangeScale all-gathers the owned modules' scaling demands. Each group
// applies only its own modules' demands, so no replica reads a peer's rows.
// No-op outside a multi-group topology.
func (c *Cluster) exchangeScale(desired []int) error {
	if c.tr == nil {
		return nil
	}
	rows := c.scaleRows[:0]
	for k := range c.modules {
		if c.owns(k) {
			rows = append(rows, WireScaleRow{Mod: int32(k), Desired: int32(desired[k])})
		}
	}
	c.scaleRows = rows
	_, err := c.tr.Scale(ScaleMsg{Group: int32(c.topo.Group), Rows: rows})
	return err
}

// Crash kills up to count active workers of module k (§2 machine failure),
// returning how many actually died. In a multi-group topology the failure
// event is replicated on every control lane but only the owner's workers
// hold state: non-owners no-op (returning 0) and learn the resulting drops
// from the barrier hook's exchange when the event ends.
func (c *Cluster) Crash(k int, now time.Duration, count int) int {
	if !c.owns(k) {
		return 0
	}
	killed := 0
	c.control(func() { killed = c.modules[k].crash(now, count) })
	return killed
}

// scheduleBatchEnd registers the batch-completion event on the worker's own
// lane.
func (c *Cluster) scheduleBatchEnd(w *worker, at time.Duration) {
	c.exec.scheduleLaneEvent(w.mod.idx, w.mod.idx, at, laneEvent{h: (*batchEndEvent)(w)})
}

// scheduleWarmup wakes a cold-started worker.
func (c *Cluster) scheduleWarmup(w *worker, at time.Duration) {
	c.exec.scheduleLaneEvent(w.mod.idx, w.mod.idx, at, laneEvent{h: (*warmupEvent)(w)})
}

// barrier is the executor's barrier hook, run after every lane window and
// after every control event with all lanes parked; it is the one commit
// path. On a multi-group topology it first exchanges with the peers,
// whose posts and charges it applies. Then the window's post bands close and
// the deferred terminations commit, so host OnDone/OnDrop callbacks observe
// complete sums and what they schedule sorts after the window's posts.
func (c *Cluster) barrier() error {
	var all []BarrierMsg
	if c.tr != nil {
		var err error
		if all, err = c.exchangeBarrier(c.exec.takeWirePosts()); err != nil {
			return err
		}
	}
	c.exec.closeBands()
	return c.bridge.commit(all)
}

// retired reports whether module k should treat the request as terminated:
// globally committed, or terminated by module k itself in the current
// window. A termination decided by *another* module inside the
// current window becomes visible at the next barrier; that bounded, fully
// deterministic visibility delay is the ordering contract that keeps the
// order of a window's lanes unobservable. Inside a control event every
// pending termination counts, whichever module decided it.
func (c *Cluster) retired(req *Request, k int) bool {
	if req.Dropped || req.Finished {
		return true
	}
	if c.inControl {
		return c.bridge.seesAny(req)
	}
	return c.bridge.sees(k, req)
}

// drop marks a request dropped at module k. The decision becomes an intent,
// committed — and told to the host — by the next barrier hook (after the
// window or the control event), keeping the shared Request untouched while
// other lanes run.
func (c *Cluster) drop(req *Request, k int, now time.Duration) {
	if !c.retired(req, k) {
		c.bridge.add(k, req, now, true)
	}
}

// commitDrop applies a drop decision. The first commit for a request wins;
// later ones are no-ops.
func (c *Cluster) commitDrop(req *Request, k int, now time.Duration) {
	if req.Dropped || req.Finished {
		return
	}
	req.Dropped = true
	req.DropModule = k
	req.DropAt = now
	c.modules[k].drops++
	if c.cfg.OnDrop != nil {
		c.cfg.OnDrop(req, k, now)
	}
}

// forward routes a request leaving module k: split to successors, merge at
// fan-in, or complete at the sink.
func (c *Cluster) forward(req *Request, k int, now time.Duration) {
	mod := c.cfg.Spec.Modules[k]
	if len(mod.Subs) == 0 {
		c.complete(req, k, now)
		return
	}
	arrive := now + c.cfg.NetDelay
	if mod.Exclusive {
		sub := mod.Subs[c.pickBranch(mod)]
		c.resetMerge(req, k, now, 1)
		c.exec.scheduleLaneEvent(k, sub, arrive, laneEvent{req: req})
		return
	}
	subs := mod.Subs
	if len(subs) > 1 {
		c.resetMerge(req, k, now, len(subs))
	}
	for _, sub := range subs {
		c.exec.scheduleLaneEvent(k, sub, arrive, laneEvent{req: req})
	}
}

// resetMerge arms the request's merge bookkeeping for the next fan-out
// region. In a multi-group topology the arm also rides the next barrier to
// the peer replicas (see WireMergeReset): the merge module's owner reads
// ExpectedMerge, and only the fan-out owner runs this code.
func (c *Cluster) resetMerge(req *Request, k int, now time.Duration, n int) {
	req.resetMerge(n)
	if c.tr != nil {
		m := c.modules[k]
		m.mergeResets = append(m.mergeResets, WireMergeReset{At: now, Mod: int32(k), Req: req.ID, Expected: int32(n)})
	}
}

// encodeMergeResets drains every module's buffered merge-arms in (module,
// decision order), appending to out.
func (c *Cluster) encodeMergeResets(out []WireMergeReset) []WireMergeReset {
	for _, m := range c.modules {
		out = append(out, m.mergeResets...)
		m.mergeResets = m.mergeResets[:0]
	}
	return out
}

// pickBranch selects one successor index for an exclusive fan-out, drawn
// from the fan-out module's own path stream.
func (c *Cluster) pickBranch(mod pipeline.Module) int {
	rng := c.pathRngs[mod.ID]
	if len(mod.BranchProb) == 0 {
		return rng.Intn(len(mod.Subs))
	}
	x := rng.Float64()
	acc := 0.0
	for i, p := range mod.BranchProb {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(mod.Subs) - 1
}

// complete finalizes a request that finished the sink module k. Like drop,
// it defers to the barrier hook.
func (c *Cluster) complete(req *Request, k int, now time.Duration) {
	if !c.retired(req, k) {
		c.bridge.add(k, req, now, false)
	}
}

// commitComplete applies a sink completion (no-op if the request already
// terminated).
func (c *Cluster) commitComplete(req *Request, now time.Duration) {
	if req.Dropped || req.Finished {
		return
	}
	req.Finished = true
	req.DoneAt = now
	if c.cfg.OnDone != nil {
		c.cfg.OnDone(req, now)
	}
}
