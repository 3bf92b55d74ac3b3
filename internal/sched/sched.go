// Package sched is the shared scheduling core of the Fig. 4 architecture:
// per-module controllers (state windows, batch dispatcher, priority/drop
// decisions), worker pools with batch assembly, state-board synchronization,
// budget accounting, the scaling engine and DAG fan-out/merge routing.
//
// The core is parameterized over a small Executor interface (time plus
// scheduled callbacks), so the same state machine runs in two places:
//
//   - the discrete-event simulator (internal/simgpu) instantiates it with
//     per-module event lanes on a virtual clock (ShardedExecutor), and
//   - the live server (internal/server) instantiates it with one queue of
//     the same kind paced by the wall clock (TimerExecutor).
//
// Both instantiations exercise the exact same dropping, batching and
// priority code paths; a parity test in internal/server proves the
// decisions are identical under virtual and injected wall clocks.
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
	// Seed derives the core's independent random streams. Execution jitter,
	// reservoir sampling and DAG branch choice use per-module streams hashed
	// from (seed, module, purpose) — module-local randomness is what lets
	// the sharded executor advance modules concurrently without consuming a
	// shared stream in racy order. Policy internals keep the shared seed+4
	// stream (drawn only in serial contexts: sync ticks and source-module
	// admission).
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
// per module of Fig. 4, driven by an Executor. All methods must be called
// from the executor's serial context (or before it starts running).
type Cluster struct {
	cfg  Config
	exec Executor
	pol  policy.Policy
	// readsWCL is set when the policy reads ModuleState.WCL; otherwise no
	// module keeps a WCL window.
	readsWCL bool

	modules []*module
	board   *core.Board

	// pathRngs holds per-module deterministic streams for exclusive DAG
	// branch choice (execution jitter and reservoir streams live on the
	// modules themselves).
	pathRngs []*rand.Rand
	jitter   float64

	batches []int
	durs    []time.Duration

	// Sync and scaling tick scratch, so a tick allocates nothing: syncNow is
	// the instant of the sync tick in progress, read by publishLane, the
	// per-lane publication bound once in New; desired holds a scaling tick's
	// per-module demands.
	syncNow     time.Duration
	publishLane func(k int)
	desired     []int
	// coldStart and maxWorkers are the scaling engine's constants of the
	// same names; New sets them, and only tests change them.
	coldStart  time.Duration
	maxWorkers int

	// Lane engine (nil on the global-queue executors): every termination
	// becomes an intent in bridge, committed by the executor's barrier hook
	// after each window and each control event; cross-module events travel
	// through the executor's ordered mailbox.
	shx    *ShardedExecutor
	bridge *laneBridge
	// inControl marks a serial control callback (sync, scaling, injected
	// failures). Its terminations defer like a window's, but every module of
	// the event sees all of them at once (see retired). Only ever flipped
	// while every lane is parked.
	inControl bool

	// Multi-group topology (tr nil on single-group and global-queue paths):
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
func New(cfg Config, exec Executor) (*Cluster, error) {
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
	c.publishLane = func(k int) {
		if c.owns(k) {
			c.modules[k].publish(c.syncNow, c.board)
		}
	}
	for k := 0; k < n; k++ {
		c.pathRngs = append(c.pathRngs, rand.New(rand.NewSource(streamSeed(cfg.Seed, k, "path"))))
	}
	if sx, ok := exec.(*ShardedExecutor); ok {
		if len(sx.lanes) != n {
			return nil, fmt.Errorf("sched: executor has %d lanes for %d modules", len(sx.lanes), n)
		}
		c.shx = sx
		c.bridge = newLaneBridge(c, n)
		sx.setBarrierHook(c.barrier)
		if sx.tr != nil {
			if cfg.Resolve == nil {
				return nil, fmt.Errorf("sched: a %d-group topology needs a Resolve hook (wire requests travel by ID)", sx.topo.Groups)
			}
			c.topo, c.tr, c.resolve = sx.topo, sx.tr, cfg.Resolve
		}
	}

	estCfg := core.DefaultEstimatorConfig()
	if cfg.Lambda > 0 {
		estCfg.Lambda = cfg.Lambda
	}
	priCfg := core.DefaultPriorityConfig()
	if cfg.PriorityWindow > 0 {
		priCfg.Window = cfg.PriorityWindow
	}
	pol, err := policy.New(cfg.PolicyName, policy.Setup{
		Spec:   cfg.Spec,
		Durs:   durs,
		Rng:    rand.New(rand.NewSource(cfg.Seed + 4)),
		EstCfg: &estCfg,
		PriCfg: &priCfg,
	})
	if err != nil {
		return nil, err
	}
	c.pol = pol
	wr, ok := pol.(policy.WCLReader)
	c.readsWCL = ok && wr.ReadsWCL()

	for k := 0; k < n; k++ {
		model, err := cfg.Lib.Get(cfg.Spec.Modules[k].Name)
		if err != nil {
			return nil, err
		}
		m := newModule(c, k, cfg.Spec.Modules[k], model, batches[k], durs[k], cfg.Workers[k])
		c.modules = append(c.modules, m)
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
// while it runs; under a policy that reads WCL, also the WCL window and the
// scratch publish copies it into. A module sees each request once, about one
// hop delay after its neighbours, so the trace's peak count within
// queueWindow, the span of every window (the rate window's inner span shares
// its timestamps), is what a window holds live, give or take the bunching the
// reservation's slack absorbs. Storage only: a window that outgrows it grows
// as an unreserved one (the live server's) does.
func (c *Cluster) Reserve(arrivals []time.Duration) {
	n := len(arrivals)
	peak := stats.PeakCount(arrivals, queueWindow)
	for _, m := range c.modules {
		if !c.owns(m.idx) {
			continue
		}
		m.qWin.Reserve(peak, n)
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
	c.scheduleEvent(-1, src.idx, sendAt+c.cfg.NetDelay,
		laneEvent{op: opReceive, m: src, req: req})
}

// scheduleEvent registers ev for module dst at time at. src is the module
// whose event is executing (-1 for host or control context). The event
// travels by value on every executor, so the typed hot-path ops allocate
// nothing; the lane engine routes cross-lane schedules through the ordered
// mailbox, the global-queue executors push onto their one queue.
func (c *Cluster) scheduleEvent(src, dst int, at time.Duration, ev laneEvent) {
	c.exec.scheduleLaneEvent(src, dst, at, ev)
}

// control brackets a serial control-context callback (sync, scaling,
// injected failures). In lane mode its terminations defer like a window's and
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
func (c *Cluster) fail(err error) {
	if c.shx != nil {
		c.shx.fail(err)
	}
}

// ControlFlush commits the terminations (and charges) decided so far in the
// running control event, so the same callback can read them: a host whose
// control callback reads replicated state after mutating it (a ticker
// predicate checking for drained requests right after a sync tick) calls it
// first. In lane mode it is the barrier hook, which the executor also runs
// when the event ends; on a multi-group topology it is an exchange, and an
// all-empty one (the common case) is a valid empty-drain round. No-op on the
// global-queue executors, which commit immediately. Errors abort the run via
// the executor.
func (c *Cluster) ControlFlush() {
	if c.bridge == nil {
		return
	}
	if err := c.barrier(); err != nil {
		c.fail(err)
	}
}

// exchangeBarrier is the multi-group half of the barrier hook: all-gather
// this group's cross-group posts, pending termination intents, buffered
// charges and merge resets; deliver the incoming posts in mailbox order and
// apply the peers' charges (integer sums — order-free) and merge resets. It
// returns the gathered messages, whose peer intents the caller commits with
// its own. After a control event posts is empty: control context schedules
// straight into the lanes. The message also carries this group's lane heads,
// from which every replica derives the next low watermark without a round
// trip of its own. The gathered slices may live in transport buffers that the
// next exchange overwrites: everything kept is copied out before the barrier
// returns.
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
	msg.CtrlAt, msg.CtrlOK, msg.LaneAt, msg.LaneOK = c.shx.heads()
	all, err := c.tr.Barrier(msg)
	if err != nil {
		return nil, err
	}
	if err := c.shx.noteBarrier(all); err != nil {
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
			dst := c.modules[wp.Dst]
			c.shx.stagePost(post{src: int(wp.Src), dst: int(wp.Dst), at: wp.At,
				ev: laneEvent{op: opReceive, m: dst, req: req}})
		}
	}
	c.shx.deliverStaged()
	for i := range all {
		if int(all[i].Group) == c.topo.Group {
			continue // flushCharges applies this group's own charges; forward armed its resets inline
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

// encodeCharges appends every owned module's buffered charges in wire shape
// to out, in (module, decision order). The buffers stay for flushCharges.
func (c *Cluster) encodeCharges(out []WireCharge) []WireCharge {
	for k, m := range c.modules {
		for i := range m.charges {
			ch := &m.charges[i]
			out = append(out, WireCharge{Mod: int32(k), Req: ch.req.ID, GPU: ch.gpu, Q: ch.q, W: ch.w, D: ch.d})
		}
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
		if c.shx != nil {
			// Publication is module-local (each module reads its own state
			// windows and writes its own board slot), so it fans out across
			// the shards; the policy refresh below stays serial — it reads
			// the whole board and draws from the shared policy stream. In a
			// multi-group topology only owned modules have state to publish;
			// the board exchange below fills in the peers' rows before the
			// (replicated) policy refresh reads the full board.
			c.syncNow = now
			c.shx.parallelLanes(c.publishLane)
		} else {
			for _, m := range c.modules {
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
	c.scheduleEvent(w.mod.idx, w.mod.idx, at, laneEvent{op: opBatchEnd, w: w})
}

// scheduleWarmup wakes a cold-started worker.
func (c *Cluster) scheduleWarmup(w *worker, at time.Duration) {
	c.scheduleEvent(w.mod.idx, w.mod.idx, at, laneEvent{op: opWarmup, w: w})
}

// barrier is the executor's barrier hook, run after every lane window and
// after every control event with all lanes parked; it is lane mode's one
// commit path. On a multi-group topology it first exchanges with the peers.
// Then the buffered per-request accounting merges into the shared Requests,
// and the deferred terminations commit — in that order, so host
// OnDone/OnDrop callbacks observe complete sums.
func (c *Cluster) barrier() error {
	var all []BarrierMsg
	if c.tr != nil {
		var err error
		if all, err = c.exchangeBarrier(c.shx.takeWirePosts()); err != nil {
			return err
		}
	}
	c.flushCharges()
	return c.bridge.commit(all)
}

// flushCharges applies every module's buffered charge records in (module,
// decision order) — a deterministic order, and the charges are commutative
// sums anyway. Buffers keep their slabs across windows.
func (c *Cluster) flushCharges() {
	for _, m := range c.modules {
		for i := range m.charges {
			ch := &m.charges[i]
			ch.req.charge(ch.gpu, ch.q, ch.w, ch.d)
		}
		m.charges = m.charges[:0]
	}
}

// retired reports whether module k should treat the request as terminated:
// globally committed, or — in lane mode — terminated by module k itself in
// the current window. A termination decided by *another* module inside the
// current window becomes visible at the next barrier; that bounded, fully
// deterministic visibility delay is the ordering contract that lets lanes
// run concurrently. A control event runs serially, so inside one every
// pending termination counts, whichever module decided it.
func (c *Cluster) retired(req *Request, k int) bool {
	if req.Dropped || req.Finished {
		return true
	}
	if c.bridge == nil {
		return false
	}
	if c.inControl {
		return c.bridge.seesAny(req)
	}
	return c.bridge.sees(k, req)
}

// drop marks a request dropped at module k and notifies the host. In lane
// mode the decision becomes an intent, committed by the next barrier hook
// (after the window or the control event), keeping the shared Request
// untouched while other lanes run.
func (c *Cluster) drop(req *Request, k int, now time.Duration) {
	if c.bridge != nil {
		if c.retired(req, k) {
			return
		}
		c.bridge.add(k, req, now, true)
		return
	}
	c.commitDrop(req, k, now)
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
		c.scheduleEvent(k, sub, arrive, laneEvent{op: opReceive, m: c.modules[sub], req: req})
		return
	}
	subs := mod.Subs
	if len(subs) > 1 {
		c.resetMerge(req, k, now, len(subs))
	}
	for _, sub := range subs {
		c.scheduleEvent(k, sub, arrive, laneEvent{op: opReceive, m: c.modules[sub], req: req})
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
// it defers to the barrier hook in lane mode.
func (c *Cluster) complete(req *Request, k int, now time.Duration) {
	if c.bridge != nil {
		if c.retired(req, k) {
			return
		}
		c.bridge.add(k, req, now, false)
		return
	}
	c.commitComplete(req, now)
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
