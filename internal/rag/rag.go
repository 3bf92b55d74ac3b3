// Package rag reproduces the paper's §7 case study: proactive request
// dropping applied to a Retrieval-Augmented-Generation workflow.
//
// The paper's stack (vLLM + Llama-3-8B, FAISS, Tavily web search; Table 2)
// is substituted by latency-faithful simulations of each stage family:
//
//   - rewrite:  continuous batching (a slot pool, no batch wait); latency
//     scales with the *output* length the model generates, which
//     is unknown until the rewrite completes.
//   - retrieve: batched vector-database lookup with near-constant latency.
//   - search:   external web API with unlimited concurrency and heavy
//     log-normal tail latency.
//   - generate: continuous batching; time-to-first-token is the prefill
//     time, which scales with the known input context length.
//
// retrieve and search run in parallel (a DAG), and generate waits for both.
// Three dropping policies are compared (Fig. 15a): reactive (drop only after
// the TTFT SLO is already violated), proactive (PARD-style estimates from
// recent averages and offline profiles), and predict (proactive plus oracle
// knowledge of rewrite output lengths).
//
// The run is a host of the repo's event queue (sched.ManualExecutor, drained
// on a virtual clock) and schedules typed events on it: every request is a
// record in one slab, and each event kind is a named pointer type over that
// record (sched.Handler), so a run allocates per slice it grows, not per
// event.
//
// It is not a pipeline.Spec on the module core of internal/sched. That core
// is a state machine for batched modules: a queue per worker, a batch formed
// after a batch wait, a profiled duration per batch size. None of the RAG
// stages has that shape: rewrite and generate are continuous-batching slot
// pools with no batch wait, search has unbounded concurrency and no queue at
// all, and every request's stage durations are drawn when the request is
// sampled (from its token counts) instead of looked up per batch. Forcing
// them into modules would model a different system.
package rag

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pard/internal/sched"
	"pard/internal/stats"
)

// PolicyKind selects the dropping policy.
type PolicyKind string

// RAG dropping policies (Fig. 15a).
const (
	Reactive  PolicyKind = "reactive"
	Proactive PolicyKind = "proactive"
	Predict   PolicyKind = "predict"
	NoDrop    PolicyKind = "nodrop"
)

// Policies lists the §7 comparison.
func Policies() []PolicyKind { return []PolicyKind{Predict, Reactive, Proactive} }

// Stage indices.
const (
	StageRewrite = iota
	StageRetrieve
	StageSearch
	StageGenerate
	numStages
)

// StageNames maps stage indices to Table 2 names.
var StageNames = [numStages]string{"rewrite", "retrieve", "search", "generate"}

// Config parameterizes a RAG run.
type Config struct {
	// Queries is the number of requests (paper: 10k from HotpotQA).
	Queries int
	// Policy selects the dropping policy.
	Policy PolicyKind
	Seed   int64
}

// The Table 2 setup, scaled for simulation: the mean arrival rate in req/s
// (Azure-trace-shaped arrivals), the time-to-first-token SLO (paper: 5 s),
// the LLM slot pools (continuous-batching capacity), the log-normal
// web-search latency, the profiled vector-DB lookup and the per-token
// decode/prefill cost.
const (
	meanRate      = 46
	ttftSLO       = 5 * time.Second
	rewriteSlots  = 36
	generateSlots = 96
	searchMedian  = 800 * time.Millisecond
	searchSigma   = 0.9
	retrieveDur   = 35 * time.Millisecond
	tokenTime     = 9 * time.Millisecond
)

// DefaultConfig returns the Table 2 setup scaled for simulation.
func DefaultConfig(p PolicyKind) Config {
	return Config{Queries: 10000, Policy: p, Seed: 1}
}

// request is one RAG query. It carries what its own pending events read back
// when they fire — the runner and the instant it entered each stage — so an
// event is nothing but a pointer to it.
type request struct {
	r    *runner
	id   int
	send time.Duration

	inputTokens   int
	rewriteTokens int // output length of the rewrite (oracle-known to predict)
	contextTokens int // generate prefill context

	rewriteDur time.Duration
	searchDur  time.Duration
	prefillDur time.Duration

	rewriteEnter time.Duration // admitted to rewrite: queued for a slot
	branchAt     time.Duration // retrieve and search began
	genEnter     time.Duration // admitted to generate: queued for a slot

	branchDone int // retrieve/search completions collected
	dropped    bool
	dropStage  int
	finished   bool
	ttft       time.Duration
}

// The run's events, one pointer type per kind: (*rewriteDone)(req) is a
// conversion, where a callback closing over req would be an allocation.
type (
	arrival      request
	rewriteDone  request
	retrieveDone request
	searchDone   request
	prefillDone  request
)

// StageLatency records observed per-stage latencies for Fig. 15b.
type StageLatency struct {
	Name    string
	Samples []float64 // seconds
}

// Result summarizes one run.
type Result struct {
	Policy            PolicyKind
	Total             int
	Good              int
	Late              int
	Dropped           int
	DropRate          float64 // (dropped + late) / total
	NormalizedGoodput float64 // good / total
	DropsPerStage     [numStages]int
	Latencies         [numStages]StageLatency
}

// slotPool models continuous batching: up to cap requests run concurrently;
// excess waits FIFO. There is no batch wait — a releasing slot immediately
// admits the next request (§7: "continuous batching, eliminating batch
// wait").
type slotPool struct {
	cap     int
	busy    int
	start   func(req *request, now time.Duration) // req has a slot as of now
	waiting []*request                            // waiting[head:] is the queue
	head    int
}

func (s *slotPool) queued() int { return len(s.waiting) - s.head }

func (s *slotPool) acquire(req *request, now time.Duration) {
	if s.busy < s.cap {
		s.busy++
		s.start(req, now)
		return
	}
	s.waiting = append(s.waiting, req)
}

func (s *slotPool) release(now time.Duration) {
	if s.queued() == 0 {
		s.busy--
		return
	}
	next := s.waiting[s.head]
	if s.head++; s.head == len(s.waiting) {
		s.waiting, s.head = s.waiting[:0], 0
	}
	s.start(next, now)
}

type runner struct {
	cfg Config
	eng *sched.ManualExecutor
	rng *rand.Rand

	rewrite  slotPool
	generate slotPool

	// Recent-average estimators for the proactive policy.
	rewriteDWin  *stats.SlidingWindow // rewrite decode durations (output-length proxy)
	searchWin    *stats.SlidingWindow
	generateDWin *stats.SlidingWindow // generate prefill durations

	reqs []request
	res  *Result
}

// Run executes one RAG simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("rag: queries must be positive")
	}
	switch cfg.Policy {
	case Reactive, Proactive, Predict, NoDrop:
	default:
		return nil, fmt.Errorf("rag: unknown policy %q", cfg.Policy)
	}
	// Everything a run touches is made here and dropped with the runner:
	// two runs share no state, so each is a function of its Config alone.
	r := &runner{
		cfg:          cfg,
		eng:          sched.NewManualExecutor(),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		rewriteDWin:  stats.NewSlidingWindow(10 * time.Second),
		searchWin:    stats.NewSlidingWindow(10 * time.Second),
		generateDWin: stats.NewSlidingWindow(10 * time.Second),
		reqs:         make([]request, cfg.Queries),
		res:          &Result{Policy: cfg.Policy},
	}
	r.rewrite = slotPool{cap: rewriteSlots, start: r.startRewrite}
	r.generate = slotPool{cap: generateSlots, start: r.startGenerate}
	for i := range r.res.Latencies {
		r.res.Latencies[i] = StageLatency{Name: StageNames[i], Samples: make([]float64, 0, min(cfg.Queries, maxSamples))}
	}
	r.eng.Reserve(cfg.Queries)
	r.inject()
	r.eng.Drain()
	r.finalize()
	return r.res, nil
}

// sampleRequest draws workload parameters: HotpotQA-like question lengths,
// rewrite output lengths correlated with input, and long-tail search.
func (r *runner) sampleRequest(req *request, id int, at time.Duration) {
	in := 16 + r.rng.Intn(48) // question tokens
	out := 10 + int(r.rng.ExpFloat64()*70)
	if out > 600 {
		out = 600
	}
	ctx := in + out + 300 + r.rng.Intn(900) // retrieved + searched context
	*req = request{
		r:             r,
		id:            id,
		send:          at,
		inputTokens:   in,
		rewriteTokens: out,
		contextTokens: ctx,
		dropStage:     -1,
	}
	req.rewriteDur = 60*time.Millisecond + time.Duration(out)*tokenTime
	req.prefillDur = 40*time.Millisecond + time.Duration(ctx)*tokenTime/4
	// Log-normal search latency with occasional multi-second tail.
	ln := math.Exp(r.rng.NormFloat64() * searchSigma)
	req.searchDur = time.Duration(float64(searchMedian) * ln)
}

func (r *runner) inject() {
	// Azure-shaped burstiness: a non-homogeneous Poisson process whose rate
	// swings between ≈0.4× and ≈1.8× the mean on a ~2 min period, pushing
	// the LLM pools into sustained transient overload (the regime where the
	// three policies differ). Lewis-Shedler thinning over wall time.
	rate := func(t float64) float64 {
		s := math.Sin(2 * math.Pi * t / 120)
		return meanRate * (0.5 + 0.9*s*s)
	}
	// A float64 product, not an exact constant one: the pinned runs draw
	// with 46·1.4 rounded to 64.39999999999999, not 64.4.
	mean := float64(meanRate)
	maxRate := mean * 1.4
	t := 0.0
	for i := 0; i < r.cfg.Queries; i++ {
		for {
			t += r.rng.ExpFloat64() / maxRate
			if r.rng.Float64()*maxRate <= rate(t) {
				break
			}
		}
		at := time.Duration(t * float64(time.Second))
		req := &r.reqs[i]
		r.sampleRequest(req, i, at)
		r.eng.ScheduleHandler(at, (*arrival)(req))
	}
}

// estimate returns the policy's TTFT estimate for the remaining stages when
// the request is about to enter the given stage.
func (r *runner) estimate(req *request, stage int, now time.Duration) time.Duration {
	elapsed := now - req.send
	if r.cfg.Policy == Reactive {
		return elapsed // reactive: only what has already happened
	}
	var rest time.Duration
	switch stage {
	case StageRewrite:
		// Both estimators share the observed slot-queue wait; they differ in
		// the decode term: proactive can only use the recent average decode
		// duration (output length is unknown before the rewrite runs), while
		// predict has oracle knowledge of this request's output length —
		// exactly the gap §7 quantifies.
		rest += r.queueEstimate(&r.rewrite, r.meanDur(r.rewriteDWin, now, 500*time.Millisecond))
		if r.cfg.Policy == Predict {
			rest += req.rewriteDur
		} else if d, ok := r.rewriteDWin.Mean(now); ok {
			rest += time.Duration(d * float64(time.Second))
		} else {
			rest += 150 * time.Millisecond
		}
		fallthrough
	case StageRetrieve, StageSearch:
		// Parallel branch: bounded by the slower of retrieve and estimated
		// search.
		search := 1200 * time.Millisecond
		if m, ok := r.searchWin.Mean(now); ok {
			search = time.Duration(m * float64(time.Second))
		}
		if retrieveDur > search {
			search = retrieveDur
		}
		rest += search
		fallthrough
	case StageGenerate:
		rest += req.prefillDur // profiled from known context length
		rest += r.queueEstimate(&r.generate, r.meanDur(r.generateDWin, now, 2*time.Second))
	}
	return elapsed + rest
}

// meanDur returns the window's mean in duration form, or the fallback when
// no samples exist yet.
func (r *runner) meanDur(w *stats.SlidingWindow, now time.Duration, fallback time.Duration) time.Duration {
	if m, ok := w.Mean(now); ok {
		return time.Duration(m * float64(time.Second))
	}
	return fallback
}

// queueEstimate predicts a slot pool's queue wait from its *instantaneous*
// state via Little's law: waiting × mean-service / slots. PARD's bi-
// directional runtime information is exactly this kind of live queue state;
// estimators built from completed-request windows lag the queue and
// mis-drop during transitions (the death-spiral failure mode of naive
// admission control).
func (r *runner) queueEstimate(pool *slotPool, meanService time.Duration) time.Duration {
	if pool.cap == 0 {
		return 0
	}
	return time.Duration(pool.queued()) * meanService / time.Duration(pool.cap)
}

// admit applies the dropping policy before a stage; false means dropped.
func (r *runner) admit(req *request, stage int, now time.Duration) bool {
	if req.dropped {
		return false
	}
	if r.cfg.Policy == NoDrop {
		return true
	}
	if r.estimate(req, stage, now) <= ttftSLO {
		return true
	}
	req.dropped = true
	req.dropStage = stage
	r.res.DropsPerStage[stage]++
	return false
}

// The stages. Every schedule call below is made at the point in the event's
// handling where it always was: (instant, schedule order) is the queue's
// tiebreak, and TestRAGGolden hashes what follows from it.

func (e *arrival) Fire(now time.Duration) {
	req := (*request)(e)
	req.r.enterRewrite(req, now)
}

func (r *runner) enterRewrite(req *request, now time.Duration) {
	if !r.admit(req, StageRewrite, now) {
		return
	}
	req.rewriteEnter = now
	r.rewrite.acquire(req, now)
}

func (r *runner) startRewrite(req *request, start time.Duration) {
	r.eng.ScheduleHandler(start+req.rewriteDur, (*rewriteDone)(req))
}

func (e *rewriteDone) Fire(now time.Duration) {
	req := (*request)(e)
	r := req.r
	r.rewriteDWin.Add(now, req.rewriteDur.Seconds())
	r.record(StageRewrite, now-req.rewriteEnter) // slot queueing + decoding
	r.rewrite.release(now)
	r.enterBranches(req, now)
}

func (r *runner) enterBranches(req *request, now time.Duration) {
	if !r.admit(req, StageRetrieve, now) {
		return
	}
	req.branchAt = now
	// Retrieve branch (batched vector DB; modeled as near-constant).
	retEnd := now + retrieveDur + time.Duration(r.rng.Intn(10))*time.Millisecond
	r.eng.ScheduleHandler(retEnd, (*retrieveDone)(req))
	// Search branch (web API, unbounded concurrency, heavy tail).
	r.eng.ScheduleHandler(now+req.searchDur, (*searchDone)(req))
}

func (e *retrieveDone) Fire(end time.Duration) {
	req := (*request)(e)
	req.r.record(StageRetrieve, end-req.branchAt)
	req.r.branchDone(req, end)
}

func (e *searchDone) Fire(end time.Duration) {
	req := (*request)(e)
	r := req.r
	r.searchWin.Add(end, req.searchDur.Seconds())
	r.record(StageSearch, req.searchDur)
	r.branchDone(req, end)
}

func (r *runner) branchDone(req *request, now time.Duration) {
	req.branchDone++
	if req.branchDone < 2 || req.dropped {
		return
	}
	r.enterGenerate(req, now)
}

func (r *runner) enterGenerate(req *request, now time.Duration) {
	if !r.admit(req, StageGenerate, now) {
		return
	}
	req.genEnter = now
	r.generate.acquire(req, now)
}

func (r *runner) startGenerate(req *request, start time.Duration) {
	r.eng.ScheduleHandler(start+req.prefillDur, (*prefillDone)(req))
}

func (e *prefillDone) Fire(now time.Duration) {
	req := (*request)(e)
	r := req.r
	r.generateDWin.Add(now, req.prefillDur.Seconds())
	r.record(StageGenerate, now-req.genEnter)
	r.generate.release(now)
	req.finished = true
	req.ttft = now - req.send
}

// maxSamples caps each stage's latency sample for Fig. 15b.
const maxSamples = 20000

func (r *runner) record(stage int, lat time.Duration) {
	s := &r.res.Latencies[stage]
	if len(s.Samples) < maxSamples {
		s.Samples = append(s.Samples, lat.Seconds())
	}
}

func (r *runner) finalize() {
	res := r.res
	res.Total = len(r.reqs)
	for i := range r.reqs {
		req := &r.reqs[i]
		switch {
		case req.finished && req.ttft <= ttftSLO:
			res.Good++
		case req.finished:
			res.Late++
		default:
			res.Dropped++
		}
	}
	if res.Total > 0 {
		res.DropRate = float64(res.Dropped+res.Late) / float64(res.Total)
		res.NormalizedGoodput = float64(res.Good) / float64(res.Total)
	}
}
