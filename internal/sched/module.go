package sched

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"pard/internal/core"
	"pard/internal/depq"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/stats"
)

// module is one pipeline stage: a controller (state windows, dispatcher) and
// a worker pool.
type module struct {
	cl    *Cluster
	idx   int
	spec  pipeline.Module
	model profile.Model

	targetBatch int
	targetDur   time.Duration
	jitter      float64

	// execRng draws the execution jitter. It is the module's own stream: the
	// lane engine advances modules lane by lane in any order within a window,
	// so a stream shared between modules would be drawn in lane order. Nil
	// on a replica of a module another lane group owns.
	execRng *rand.Rand

	// workers point into the arrays addWorkers carves each pool from: an
	// event holds its *worker, so a worker never moves. nextWID numbers the
	// next one; a worker's id is its index here.
	workers []*worker
	nextWID int
	// tree is the dispatch table, a winner tree kept current by
	// worker.noteLoad. Its second half holds one leaf per worker in id order,
	// the worker's dispatchKey, then noWorker up to a power of two; each node
	// i ≥ 1 of its first half holds the smaller of nodes 2i and 2i+1. So node
	// 1 is the least-loaded eligible worker, the lowest id among equals: a
	// dispatch reads one word, and a load change climbs at most log₂ of the
	// pool's levels.
	tree []uint64

	// Controller state (State Planner inputs, §4.1 step ①), pointing into
	// the cluster's arrays (newModules). Every window and ring is nil on a
	// replica of a module another lane group owns, and a window is nil
	// unless the policy reads its field (policy.Reads) or, for qWin, the
	// queue-delay probe records it.
	qWin    *stats.SlidingWindow // queueing delay samples (seconds)
	wclWin  *stats.SlidingWindow // per-request Q+W+D samples (seconds)
	waitRes *stats.Ring          // the last waitRing batch waits (seconds)
	// rateWin is the input workload: its span feeds the scaling engine
	// (smooth), its inner span T_in for priority control (fast).
	rateWin *stats.RateWindow

	drops       int
	peakWorkers int

	// charges holds this module's per-request batch accounting since the
	// last barrier in a multi-group topology (empty otherwise), for the peer
	// replicas (see Cluster.encodeCharges). The slab is reused across
	// windows.
	charges []chargeRec

	// mergeResets buffers this module's DAG merge-arms in a multi-group
	// topology (empty otherwise): forward executes on the owner only, so
	// the reset must ride the next barrier to the peer replicas. Lane-local
	// like charges — forward runs on this module's lane.
	mergeResets []WireMergeReset

	// publish scratch, reused across sync ticks, kept only beside wclWin:
	// wclScratch holds the WCL window values (module-owned, safe to reorder
	// in place), pctScratch the percentile outputs.
	wclScratch []float64
	pctScratch []float64

	// Probes.
	queueDelayProbe *metrics.Series
	loadProbe       *metrics.Series
	modeProbe       *metrics.Series
	budgetProbe     *metrics.Series // consumed budget per completed module visit (ms)
	remainProbe     *metrics.Series // remaining budget at module arrival (ms)
	waitProbe       *stats.Ring     // the last waitProbeRing batch waits (Fig. 6)
	probeCount      int
}

// newModules builds the cluster's modules in one piece: the module structs,
// the State Planner windows and rings of the modules this replica owns, and
// every module's initial worker pool (see newPools) are arrays carved per
// module, so a build costs the same allocations whatever the module count,
// but for the execution-jitter stream of each owned module. A replica of a module another lane group owns runs no
// batch and observes nothing: it keeps no window, ring or stream.
func (c *Cluster) newModules() {
	cfg, plan := &c.cfg, &c.plan
	n := len(plan.Workers)
	owned := 0
	for k := range n {
		if c.owns(k) {
			owned++
		}
	}
	// Each owned module keeps the queueing-delay window when the policy or
	// the queue-delay probe reads it, and the WCL window when the policy
	// does; both sit in c.wins, a module's in a row.
	keepQ := c.reads.QueueDelay || cfg.Probes.QueueDelay
	perModule := 0
	if keepQ {
		perModule++
	}
	if c.reads.WCL {
		perModule++
	}
	mods := make([]module, n)
	c.modules = make([]*module, n)
	c.rates = make([]stats.RateWindow, owned)
	c.wins = make([]stats.SlidingWindow, perModule*owned)
	var waits, probes []stats.Ring
	if c.reads.BatchWait {
		waits = stats.NewRings(owned, waitRing)
	}
	if cfg.Probes.Decomposition {
		probes = stats.NewRings(owned, waitProbeRing)
	}
	o := 0 // owned modules so far
	for k := range mods {
		m := &mods[k]
		*m = module{
			cl:          c,
			idx:         k,
			spec:        plan.Spec.Modules[k],
			model:       plan.Lib.Models[plan.Spec.Modules[k].Name],
			targetBatch: plan.Batches[k],
			targetDur:   plan.Durs[k],
			jitter:      c.jitter,
			peakWorkers: plan.Workers[k],
		}
		c.modules[k] = m
		if cfg.Probes.QueueDelay {
			m.queueDelayProbe = &metrics.Series{Name: "queue-delay"}
		}
		if cfg.Probes.LoadFactor {
			m.loadProbe = &metrics.Series{Name: "load-factor"}
			m.modeProbe = &metrics.Series{Name: "priority-mode"}
		}
		if cfg.Probes.Budget {
			m.budgetProbe = &metrics.Series{Name: "consumed-budget"}
			m.remainProbe = &metrics.Series{Name: "remaining-budget"}
		}
		if !c.owns(k) {
			continue
		}
		m.execRng = rand.New(rand.NewSource(streamSeed(cfg.Seed, k, "exec")))
		m.rateWin = &c.rates[o]
		m.rateWin.Init(queueWindow, inputRateSpan)
		wins := c.wins[o*perModule : (o+1)*perModule]
		if keepQ {
			m.qWin, wins = &wins[0], wins[1:]
			m.qWin.Init(queueWindow)
		}
		if c.reads.WCL {
			m.wclWin = &wins[0]
			m.wclWin.Init(queueWindow)
		}
		if waits != nil {
			m.waitRes = &waits[o]
		}
		if probes != nil {
			m.waitProbe = &probes[o]
		}
		o++
	}
	c.newPools(plan.Workers)
}

// A module's State Planner statistics: queueWindow is the span of the
// queueing-delay and WCL windows (§4.2 footnote 4) and of the rate window the
// scaling engine reads, inputRateSpan the inner span of that same rate window,
// the horizon of the fast T_in priority control reads, waitRing the number of
// latest batch waits a module keeps for the §4.2 estimator (the paper does
// not say how its sample ages), and waitProbeRing the number the Fig. 6
// decomposition probe keeps.
const (
	inputRateSpan = 2 * time.Second
	queueWindow   = 5 * time.Second
	waitRing      = 512
	waitProbeRing = 10000
)

// depqRoom is a DEPQ worker queue's room before it grows onto an array of its
// own. A worker keeping up holds at most one queued request (the rest wait in
// its forming batch), as every worker of a dense steady run does.
const depqRoom = 1

// fifoRoom is a FIFO worker queue's room in target batches: the queue of a
// worker keeping up holds about one, and one that falls behind grows it as it
// would anyway.
const fifoRoom = 4

// newPools spawns every module's initial pool in one piece: worker structs,
// their queues, the queues' storage, two batch slabs a worker, the modules'
// worker slices and dispatch trees are arrays carved per module, then per
// worker, so the pools cost the same allocations whatever the module count
// and pool sizes. A module's slice and tree are capped at its own end: a
// scale-out moves them onto arrays of their own (addWorkers).
func (c *Cluster) newPools(workers []int) {
	total, slabs, trees := 0, 0, 0
	for k, m := range c.modules {
		total += workers[k]
		slabs += 2 * workers[k] * m.targetBatch
		trees += 2 * treeSize(workers[k])
	}
	ws := make([]worker, total)
	if c.pol.Queue() == policy.KindDEPQ {
		qs := depq.NewDEPQs[entry](total, depqRoom)
		for i := range ws {
			ws[i].queue = &qs[i]
		}
	} else {
		rooms := make([]int, len(c.modules))
		for k, m := range c.modules {
			rooms[k] = fifoRoom * m.targetBatch
		}
		qs := depq.NewFIFOGroups[entry](workers, rooms)
		for i := range ws {
			ws[i].queue = &qs[i]
		}
	}
	ptrs := make([]*worker, total)
	slab := make([]batchMember, slabs)
	tree := make([]uint64, trees)
	for k, m := range c.modules {
		n, b, t := workers[k], m.targetBatch, 2*treeSize(workers[k])
		m.workers, ptrs = ptrs[:0:n], ptrs[n:]
		m.tree, tree = tree[:t:t], tree[t:]
		m.spawn(ws[:n], slab[:2*n*b], 0, false)
		ws, slab = ws[n:], slab[2*n*b:]
	}
}

// addWorkers scales the pool out by n workers in one piece: the worker
// structs, their queues, the queues' storage and two batch slabs per worker
// are four arrays carved per worker, so a scale-out costs the same
// allocations whatever its size. Cold workers serve only after the
// cold-start delay.
func (m *module) addWorkers(n int, now time.Duration, cold bool) {
	ws := make([]worker, n)
	if m.cl.pol.Queue() == policy.KindDEPQ {
		qs := depq.NewDEPQs[entry](n, depqRoom)
		for i := range ws {
			ws[i].queue = &qs[i]
		}
	} else {
		qs := depq.NewFIFOs[entry](n, fifoRoom*m.targetBatch)
		for i := range ws {
			ws[i].queue = &qs[i]
		}
	}
	m.workers = slices.Grow(m.workers, n)
	m.spawn(ws, make([]batchMember, 2*n*m.targetBatch), now, cold)
}

// spawn numbers the workers of ws, their queues set, on from nextWID, carves
// each its two batch slabs from slabs, adds them to the pool and rebuilds the
// dispatch tree.
func (m *module) spawn(ws []worker, slabs []batchMember, now time.Duration, cold bool) {
	b := m.targetBatch
	for i := range ws {
		w := &ws[i]
		w.mod, w.id, w.active = m, m.nextWID, true
		m.nextWID++
		w.forming, w.spare = depq.Carve(slabs, 2*i, b), depq.Carve(slabs, 2*i+1, b)
		if cold {
			w.coldUntil = now + m.cl.coldStart
			m.cl.scheduleWarmup(w, w.coldUntil)
		}
		m.workers = append(m.workers, w)
	}
	m.growTree()
}

// treeSize is the leaf count of a dispatch tree over n workers: the least
// power of two not below n.
func treeSize(n int) int {
	size := 1
	for size < n {
		size *= 2
	}
	return size
}

// growTree rebuilds the dispatch tree over every worker, new ones included.
func (m *module) growTree() {
	size := treeSize(len(m.workers))
	t := m.tree
	if len(t) != 2*size {
		t = make([]uint64, 2*size)
	}
	for id := range size {
		t[size+id] = noWorker
		if id < len(m.workers) {
			t[size+id] = m.workers[id].dispatchKey()
		}
	}
	for i := size - 1; i > 0; i-- {
		t[i] = min(t[2*i], t[2*i+1])
	}
	m.tree = t
}

// setKey puts worker id's dispatch key into its leaf and replays the matches
// above it, stopping where a node's winner stays what it was.
func (m *module) setKey(id int, key uint64) {
	t := m.tree
	i := len(t)/2 + id
	if t[i] == key {
		return
	}
	t[i] = key
	for i > 1 {
		win := min(t[i], t[i^1])
		i /= 2
		if t[i] == win {
			return
		}
		t[i] = win
	}
}

// ineligible is the load half of a deactivated or crashed worker's dispatch
// key; no real load reaches it, so the dispatcher never picks one. noWorker
// fills the leaves past the pool.
const (
	ineligible = math.MaxInt32
	noWorker   = math.MaxUint64
)

// activeWorkers counts dispatcher-eligible workers.
func (m *module) activeWorkers() int {
	n := 0
	for _, w := range m.workers {
		if w.active {
			n++
		}
	}
	return n
}

// warmWorkers counts workers currently able to serve.
func (m *module) warmWorkers(now time.Duration) int {
	n := 0
	for _, w := range m.workers {
		if w.active && w.warm(now) {
			n++
		}
	}
	return n
}

// throughput is the module capacity T_m in req/s at time now.
func (m *module) throughput(now time.Duration) float64 {
	warm := m.warmWorkers(now)
	if warm == 0 {
		warm = 1 // capacity about to exist; avoids μ=∞ flapping during cold start
	}
	return float64(warm) * m.model.Throughput(m.targetBatch)
}

// execDuration draws a jittered execution duration for a batch of size n.
func (m *module) execDuration(n int) time.Duration {
	d := m.model.Duration(n)
	j := m.jitter
	if m.model.JitterPct > 0 {
		j = m.model.JitterPct
	}
	if j <= 0 {
		return d
	}
	f := 1 + (m.execRng.Float64()*2-1)*j
	return time.Duration(float64(d) * f)
}

// retired reports whether the request needs no further processing at this
// module (terminated globally, or by this module in the current window).
func (m *module) retired(r *Request) bool { return m.cl.retired(r, m.idx) }

// receive handles a request copy arriving at this module (dispatcher step ④,
// plus DAG merge semantics).
func (m *module) receive(r *Request, now time.Duration) {
	if m.retired(r) {
		return
	}
	if len(m.spec.Pres) > 1 {
		// Merge point: wait for all expected branch copies; the merged
		// request's arrival is the latest branch arrival (§4.2: latency along
		// a DAG is the maximum over paths).
		r.mergeArrived++
		if now > r.mergeMaxArrive {
			r.mergeMaxArrive = now
		}
		if r.mergeArrived < r.ExpectedMerge {
			return
		}
		now = r.mergeMaxArrive
	}
	m.rateWin.Observe(now)
	e := entry{req: r, arrive: now}
	if m.remainProbe != nil {
		m.probeCount++
		if m.probeCount%m.cl.cfg.Probes.Every() == 0 {
			m.remainProbe.Add(now, float64((r.Deadline - now).Milliseconds()))
		}
	}
	ri := policy.RequestInfo{Send: r.Send, Deadline: r.Deadline, ArriveModule: now}
	if !m.cl.pol.Admit(m.idx, now, ri) {
		m.cl.drop(r, m.idx, now)
		return
	}
	m.dispatch(e, now)
}

// leastLoaded returns the index of the least-loaded active worker, the
// lowest among equals, or -1 when none is active: the dispatch tree's root.
func (m *module) leastLoaded() int {
	win := m.tree[1]
	if win>>32 >= ineligible {
		return -1
	}
	return int(uint32(win))
}

// dispatch routes the entry to the least-loaded active worker.
func (m *module) dispatch(e entry, now time.Duration) {
	best := m.leastLoaded()
	if best < 0 {
		// All workers deactivated (should not happen with MinWorkers >= 1);
		// drop defensively rather than stranding the request.
		m.cl.drop(e.req, m.idx, now)
		return
	}
	m.workers[best].enqueue(e, now)
}

// chargeRequest applies a batch execution's per-request accounting at once,
// on every executor. In a multi-group topology it also keeps the charge for
// the peer replicas, which learn of it at the next barrier.
func (m *module) chargeRequest(r *Request, gpu, q, w, d time.Duration) {
	r.charge(gpu, q, w, d)
	if m.cl.tr != nil {
		m.charges = append(m.charges, chargeRec{req: r, gpu: gpu, q: q, w: w, d: d})
	}
}

// observe records decision-time measurements for a batched request
// (controller monitoring, §4.1 step ①).
func (m *module) observe(q, wait, dur time.Duration, now time.Duration) {
	if m.qWin != nil {
		m.qWin.Add(now, q.Seconds())
	}
	if m.waitRes != nil {
		m.waitRes.Add(wait.Seconds())
	}
	if m.wclWin != nil {
		m.wclWin.Add(now, (q + wait + dur).Seconds())
	}
	if m.waitProbe != nil {
		m.waitProbe.Add(wait.Seconds())
	}
}

// probeBudget records the latency consumed at this module by a completed
// batch member (Fig. 12a).
func (m *module) probeBudget(arrive, done time.Duration) {
	if m.budgetProbe == nil {
		return
	}
	m.budgetProbe.Add(done, float64((done - arrive).Milliseconds()))
}

// publish pushes this module's snapshot to the shared board (sync step ②).
// The board copies the ring's live samples into the module's slot. A
// field whose window the module does not keep stays at its zero value.
func (m *module) publish(now time.Duration, board *core.Board) {
	var qMean float64
	if m.qWin != nil {
		qMean, _ = m.qWin.Mean(now)
	}
	var waits []float64
	if m.waitRes != nil {
		waits = m.waitRes.Values()
	}
	wcl := 0.0
	if m.wclWin != nil {
		m.wclScratch = m.wclWin.ValuesInto(now, m.wclScratch)
		if len(m.wclScratch) > 0 {
			m.pctScratch = stats.PercentilesInto(m.pctScratch[:0], m.wclScratch, 0.95)
			wcl = m.pctScratch[0]
		}
	}
	st := core.ModuleState{
		QueueDelay:  time.Duration(qMean * float64(time.Second)),
		ProfiledDur: m.targetDur,
		BatchWait:   waits,
		InputRate:   m.rateWin.InnerRate(now),
		Throughput:  m.throughput(now),
		WCL:         time.Duration(wcl * float64(time.Second)),
	}
	board.Publish(m.idx, st)

	if m.queueDelayProbe != nil {
		m.queueDelayProbe.Add(now, qMean*1000) // ms
	}
}

// probePriority records load factor and priority mode after a sync
// (Fig. 13).
func (m *module) probePriority(now time.Duration, board *core.Board) {
	if m.loadProbe == nil {
		return
	}
	s := board.Get(m.idx)
	mu := 0.0
	if s.Throughput > 0 {
		mu = s.InputRate / s.Throughput
	}
	m.loadProbe.Add(now, mu)
	mode := 0.0
	if m.cl.pol.PopEnd(m.idx) == policy.MaxEnd {
		mode = 1
	}
	m.modeProbe.Add(now, mode)
}

// desiredWorkers computes the scaling engine's per-module demand from the
// recent input rate.
func (m *module) desiredWorkers(now time.Duration) int {
	rate := m.rateWin.Rate(now)
	tp := m.model.Throughput(m.targetBatch)
	return min(max(int(rate*scaleHeadroom/tp)+1, minWorkers), m.cl.maxWorkers)
}

// applyScale adjusts the worker pool toward the desired count (scaling
// engine, Fig. 4).
func (m *module) applyScale(now time.Duration, desired int) {
	active := m.activeWorkers()
	if active > m.peakWorkers {
		m.peakWorkers = active
	}
	if desired > m.peakWorkers {
		m.peakWorkers = desired
	}
	switch {
	case desired > active:
		// Reactivate drained workers first (still warm), then cold-start new
		// ones. Failed workers never come back; replacements are new
		// machines with full cold starts.
		need := desired - active
		for _, w := range m.workers {
			if need == 0 {
				break
			}
			if !w.active && !w.dead {
				w.active = true
				w.pump(now)
				need--
			}
		}
		m.addWorkers(need, now, true)
	case desired < active:
		// Deactivate highest-id active workers; they drain naturally.
		for i := len(m.workers) - 1; i >= 0 && active > desired; i-- {
			if w := m.workers[i]; w.active {
				w.active = false
				w.noteLoad()
				active--
			}
		}
	}
}

// crash kills up to count active workers (§2 machine failure): their queued,
// forming, and executing requests are lost, and their capacity disappears
// until the scaling engine cold-starts replacements.
func (m *module) crash(now time.Duration, count int) int {
	killed := 0
	for i := len(m.workers) - 1; i >= 0 && killed < count; i-- {
		w := m.workers[i]
		if !w.active || w.dead {
			continue
		}
		w.dead = true
		w.active = false
		w.busy = false
		for _, e := range w.queue.Drain() {
			m.cl.drop(e.req, m.idx, now)
		}
		for _, mem := range w.forming {
			m.cl.drop(mem.e.req, m.idx, now)
		}
		for _, mem := range w.executing {
			m.cl.drop(mem.e.req, m.idx, now)
		}
		// The slabs are carved from storage the module's other workers keep
		// reachable: clear them, so a dead worker keeps no request alive.
		clear(w.forming[:cap(w.forming)])
		clear(w.executing[:cap(w.executing)])
		clear(w.spare[:cap(w.spare)])
		w.forming, w.executing, w.spare = nil, nil, nil
		w.noteLoad()
		killed++
	}
	return killed
}
