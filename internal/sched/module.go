package sched

import (
	"math"
	"math/rand"
	"time"

	"pard/internal/core"
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

	// Per-module deterministic random streams: sharded execution advances
	// modules concurrently, so each module consumes its own streams rather
	// than racing over shared ones.
	execRng *rand.Rand // execution jitter
	statRng *rand.Rand // reservoir sampling

	workers []*worker
	nextWID int
	// loads is the dispatch table, kept current by worker.noteLoad: loads[i]
	// is workers[i].load(), or ineligible while the dispatcher must skip that
	// worker, so a dispatch scans one array instead of chasing every worker.
	loads []int32

	// Controller state (State Planner inputs, §4.1 step ①).
	qWin    *stats.SlidingWindow // queueing delay samples (seconds)
	wclWin  *stats.SlidingWindow // per-request Q+W+D samples (seconds)
	waitRes *stats.Reservoir     // batch-wait samples (seconds)
	rateWin *stats.RateWindow    // input workload for the scaling engine (smooth)
	inWin   *stats.RateWindow    // input workload T_in for priority control (fast)

	drops       int
	peakWorkers int

	// charges buffers this module's per-request batch accounting in lane
	// mode; the cluster merges it into the shared Requests at each window
	// barrier (see Cluster.flushCharges). The slab is reused across windows.
	charges []chargeRec

	// mergeResets buffers this module's DAG merge-arms in a multi-group
	// topology (empty otherwise): forward executes on the owner only, so
	// the reset must ride the next barrier to the peer replicas. Lane-local
	// like charges — forward runs on this module's lane.
	mergeResets []WireMergeReset

	// publish scratch, reused across sync ticks: wclScratch holds the WCL
	// window values (module-owned, safe to reorder in place), pctScratch the
	// percentile outputs.
	wclScratch []float64
	pctScratch []float64

	// Probes.
	queueDelayProbe *metrics.Series
	loadProbe       *metrics.Series
	modeProbe       *metrics.Series
	budgetProbe     *metrics.Series // consumed budget per completed module visit (ms)
	remainProbe     *metrics.Series // remaining budget at module arrival (ms)
	waitProbe       *stats.Reservoir
	probeCount      int
}

func newModule(c *Cluster, idx int, spec pipeline.Module, model profile.Model, batch int, dur time.Duration, workers int) *module {
	statRng := rand.New(rand.NewSource(streamSeed(c.cfg.Seed, idx, "stat")))
	m := &module{
		cl:          c,
		idx:         idx,
		spec:        spec,
		model:       model,
		targetBatch: batch,
		targetDur:   dur,
		jitter:      c.jitter,
		execRng:     rand.New(rand.NewSource(streamSeed(c.cfg.Seed, idx, "exec"))),
		statRng:     statRng,
		qWin:        stats.NewSlidingWindow(c.cfg.QueueWindow),
		wclWin:      stats.NewSlidingWindow(c.cfg.QueueWindow),
		waitRes:     stats.NewReservoir(c.cfg.WaitReservoir, statRng),
		rateWin:     stats.NewRateWindow(c.cfg.QueueWindow),
		inWin:       stats.NewRateWindow(inputRateSpan),
		workers:     make([]*worker, 0, workers),
		loads:       make([]int32, 0, workers),
	}
	if c.cfg.Probes.QueueDelay {
		m.queueDelayProbe = &metrics.Series{Name: "queue-delay"}
	}
	if c.cfg.Probes.LoadFactor {
		m.loadProbe = &metrics.Series{Name: "load-factor"}
		m.modeProbe = &metrics.Series{Name: "priority-mode"}
	}
	if c.cfg.Probes.Budget {
		m.budgetProbe = &metrics.Series{Name: "consumed-budget"}
		m.remainProbe = &metrics.Series{Name: "remaining-budget"}
	}
	if c.cfg.Probes.Decomposition {
		m.waitProbe = stats.NewReservoir(10000, statRng)
	}
	for i := 0; i < workers; i++ {
		m.addWorker(0, false)
	}
	m.peakWorkers = workers
	return m
}

// inputRateSpan is the horizon of the fast T_in window priority control reads.
const inputRateSpan = 2 * time.Second

// addWorker spawns a worker; cold workers serve only after the cold-start
// delay.
func (m *module) addWorker(now time.Duration, cold bool) *worker {
	w := newWorker(m, m.nextWID)
	m.nextWID++
	if cold {
		w.coldUntil = now + m.cl.cfg.Scaling.ColdStart
		m.cl.scheduleWarmup(w, w.coldUntil)
	}
	m.workers = append(m.workers, w)
	m.loads = append(m.loads, 0)
	return w
}

// ineligible marks a deactivated or crashed worker in module.loads; no real
// load reaches it, so the dispatcher's argmin never picks one.
const ineligible = math.MaxInt32

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
	m.inWin.Observe(now)
	e := entry{req: r, arrive: now}
	if m.remainProbe != nil {
		m.probeCount++
		if m.probeCount%m.cl.cfg.Probes.SampleEvery == 0 {
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
// lowest among equals, or -1 when none is active.
func (m *module) leastLoaded() int {
	best, least := -1, int32(ineligible)
	for i, l := range m.loads {
		if l < least {
			best, least = i, l
		}
	}
	return best
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

// chargeRequest records a batch execution's per-request accounting. Lane
// mode appends to the module-local buffer (merged at the next barrier);
// the global-queue executors apply it immediately — they run the
// core serially by contract, so the plain adds in Request.charge are safe.
func (m *module) chargeRequest(r *Request, gpu, q, w, d time.Duration) {
	if m.cl.bridge != nil {
		m.charges = append(m.charges, chargeRec{req: r, gpu: gpu, q: q, w: w, d: d})
		return
	}
	r.charge(gpu, q, w, d)
}

// observe records decision-time measurements for a batched request
// (controller monitoring, §4.1 step ①).
func (m *module) observe(q, wait, dur time.Duration, now time.Duration) {
	m.qWin.Add(now, q.Seconds())
	m.waitRes.Add(wait.Seconds())
	m.wclWin.Add(now, (q + wait + dur).Seconds())
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
// The board copies the reservoir's live samples into the module's slot.
func (m *module) publish(now time.Duration, board *core.Board) {
	qMean, _ := m.qWin.Mean(now)
	wcl := 0.0
	m.wclScratch = m.wclWin.ValuesInto(now, m.wclScratch)
	if len(m.wclScratch) > 0 {
		m.pctScratch = stats.PercentilesInto(m.pctScratch[:0], m.wclScratch, 0.95)
		wcl = m.pctScratch[0]
	}
	st := core.ModuleState{
		QueueDelay:  time.Duration(qMean * float64(time.Second)),
		ProfiledDur: m.targetDur,
		BatchWait:   m.waitRes.Values(),
		InputRate:   m.inWin.Rate(now),
		Throughput:  m.throughput(now),
		WCL:         time.Duration(wcl * float64(time.Second)),
	}
	st.Overloaded = st.QueueDelay > 20*time.Millisecond
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
	if pr, ok := m.cl.pol.(interface {
		Priority(int) *core.PriorityController
	}); ok {
		if pc := pr.Priority(m.idx); pc != nil && pc.Mode() == core.HBF {
			mode = 1
		}
	}
	m.modeProbe.Add(now, mode)
}

// desiredWorkers computes the scaling engine's per-module demand from the
// recent input rate.
func (m *module) desiredWorkers(now time.Duration) int {
	sc := m.cl.cfg.Scaling
	rate := m.rateWin.Rate(now)
	tp := m.model.Throughput(m.targetBatch)
	desired := int(rate*sc.Headroom/tp) + 1
	if desired < sc.MinWorkers {
		desired = sc.MinWorkers
	}
	if desired > sc.MaxWorkers {
		desired = sc.MaxWorkers
	}
	return desired
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
		for ; need > 0; need-- {
			m.addWorker(now, true)
		}
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
		w.forming, w.executing = nil, nil
		w.noteLoad()
		killed++
	}
	return killed
}
