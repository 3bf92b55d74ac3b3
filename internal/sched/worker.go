package sched

import (
	"time"

	"pard/internal/depq"
	"pard/internal/policy"
)

// batchMember is a request inside a forming or executing batch, with its
// decision-time measurements.
type batchMember struct {
	e  entry
	tb time.Duration // when placed into the batch (decision time t_b)
	q  time.Duration // queueing delay Q_k = t_b − t_r
}

// worker is one GPU container serving a module. Under the simulator it is a
// simulated machine; under the live server its batch executions occupy real
// wall-clock time.
type worker struct {
	mod *module
	id  int

	queue depq.Queue[entry]

	// forming, executing and spare share the worker's two batch slabs,
	// carved from its module's pool at construction (module.addWorkers),
	// each capped at exactly one target batch (depq.Carve), so no reslice
	// reaches a neighbour's slab. spare holds the last finished batch's slab
	// until startBatch hands it to the next forming batch, so a worker cycles
	// its two slabs for as long as it lives and allocates none.
	forming   []batchMember
	executing []batchMember
	spare     []batchMember
	busy      bool
	execStart time.Duration
	execDur   time.Duration
	execEnd   time.Duration

	active    bool // dispatcher eligibility
	dead      bool // crashed (never serves again)
	coldUntil time.Duration
}

// batchEndEvent and warmupEvent are a worker's own lane events as Handlers:
// converting the *worker allocates nothing.
type (
	batchEndEvent worker
	warmupEvent   worker
)

func (e *batchEndEvent) Fire(now time.Duration) { (*worker)(e).batchEnd(now) }
func (e *warmupEvent) Fire(now time.Duration)   { (*worker)(e).pump(now) }

// load is the dispatcher's balancing metric.
func (w *worker) load() int { return w.queue.Len() + len(w.forming) }

// dispatchKey is this worker's leaf in the module's dispatch tree: its load,
// or ineligible while the dispatcher must skip it, above its id.
func (w *worker) dispatchKey() uint64 {
	l := uint64(ineligible)
	if w.active {
		l = uint64(w.load())
	}
	return l<<32 | uint64(w.id)
}

// noteLoad refreshes this worker's leaf of the module's dispatch tree,
// wherever load or eligibility changes: at the end of pump and batchEnd (every
// enqueue, fill and batch start happens under one), on deactivation and crash.
func (w *worker) noteLoad() { w.mod.setKey(w.id, w.dispatchKey()) }

// warm reports whether the worker can serve at time now.
func (w *worker) warm(now time.Duration) bool { return now >= w.coldUntil }

// enqueue adds a request copy and advances the pipeline.
func (w *worker) enqueue(e entry, now time.Duration) {
	w.queue.Push(e, int64(e.req.Deadline))
	w.pump(now)
}

// pump advances the worker: fills the forming batch and starts execution
// when the GPU is idle.
func (w *worker) pump(now time.Duration) {
	switch {
	case w.dead || !w.warm(now):
	case w.busy:
		w.fill(now, w.execEnd)
	default:
		w.fill(now, now)
		if len(w.forming) > 0 {
			w.startBatch(now)
		}
	}
	w.noteLoad()
}

// fill pops queued requests into the forming batch up to the target size,
// applying the drop policy to each popped request (decision time t_b = now,
// expected batch start t_e = te). This is the Request Broker step ⑥ of
// Fig. 4.
//
// Serving the max end (High Budget First), fill first sheds the min end: the
// smallest remaining budgets are the requests most certainly doomed, and
// nothing else would look at them again until the priority flips back. The
// min end is popped while its head is already retired or Decide, at the
// forming batch's expected start, says it cannot make its SLO. te is the
// earliest any queued request can start, so what is shed is doomed wherever
// it would sit in line, and the cost is one Decide plus one per drop. Serving
// the min end, the pops below shed as they serve.
func (w *worker) fill(now, te time.Duration) {
	m := w.mod
	maxEnd := m.cl.pol.PopEnd(m.idx) == policy.MaxEnd
	if maxEnd {
		for {
			e, _, ok := w.queue.PeekMin()
			if !ok {
				break
			}
			live := !m.retired(e.req)
			if live && w.decide(e, now, te) {
				break
			}
			w.queue.PopMin()
			if live {
				m.cl.drop(e.req, m.idx, now)
			}
		}
	}
	for len(w.forming) < m.targetBatch && w.queue.Len() > 0 {
		var e entry
		var ok bool
		if maxEnd {
			e, _, ok = w.queue.PopMax()
		} else {
			e, _, ok = w.queue.PopMin()
		}
		if !ok {
			return
		}
		if m.retired(e.req) {
			continue // dropped in a parallel branch; discard silently
		}
		if !w.decide(e, now, te) {
			m.cl.drop(e.req, m.idx, now)
			continue
		}
		w.forming = append(w.forming, batchMember{e: e, tb: now, q: now - e.arrive})
	}
}

// decide asks the policy whether the queued request e can still make its SLO
// in a batch decided at now and expected to start at te.
func (w *worker) decide(e entry, now, te time.Duration) bool {
	m := w.mod
	return m.cl.pol.Decide(policy.DecideCtx{
		Req: policy.RequestInfo{
			Send:         e.req.Send,
			Deadline:     e.req.Deadline,
			ArriveModule: e.arrive,
		},
		Module:        m.idx,
		Now:           now,
		ExpectedStart: te,
		ExecDur:       m.targetDur,
		SLO:           m.cl.cfg.Spec.SLO,
	})
}

// startBatch promotes the forming batch to the GPU and immediately begins
// collecting the next batch (Fig. 3b: the scheduler "collects the next batch
// right after the previous one begins execution").
func (w *worker) startBatch(now time.Duration) {
	m := w.mod
	w.executing = w.forming
	w.forming = w.spare[:0]
	w.spare = nil
	w.busy = true
	w.execStart = now
	w.execDur = m.execDuration(len(w.executing))
	w.execEnd = now + w.execDur

	// Decision-time stats per member, now that the actual start is known:
	// W_k = start − t_b.
	for i := range w.executing {
		mem := &w.executing[i]
		m.observe(mem.q, now-mem.tb, w.execDur, now)
	}
	m.cl.scheduleBatchEnd(w, w.execEnd)

	// Collect the next batch while this one executes.
	w.fill(now, w.execEnd)
}

// batchEnd finalizes the executing batch: charges GPU time, forwards
// survivors downstream, and starts the next batch.
func (w *worker) batchEnd(now time.Duration) {
	if w.dead {
		return // GPU crashed mid-execution; members were dropped at crash time
	}
	m := w.mod
	batch := w.executing
	w.executing = nil
	w.busy = false

	n := len(batch)
	if n > 0 {
		perReqGPU := w.execDur / time.Duration(n)
		for i := range batch {
			mem := &batch[i]
			r := mem.e.req
			m.chargeRequest(r, perReqGPU, mem.q, w.execStart-mem.tb, w.execDur)
			m.probeBudget(mem.e.arrive, now)
			if m.retired(r) {
				continue // executed alongside, but the request is already dead
			}
			m.cl.forward(r, m.idx, now)
		}
	}
	w.spare = batch[:0] // recycle the drained slab for the next forming batch

	// Promote the batch that formed during execution, or refill from queue.
	if len(w.forming) > 0 {
		w.startBatch(now)
		w.noteLoad()
		return
	}
	w.pump(now)
}
