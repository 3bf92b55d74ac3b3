// Package server is the wall-clock serving runtime: a thin shell over the
// shared scheduling core (internal/sched) — the same controller / worker /
// policy state machine the discrete-event simulator runs — instantiated
// with one event queue paced by the wall clock (sched.TimerExecutor) and an
// HTTP data plane. Model execution is simulated by letting the profiled batch
// duration elapse: a batch end fires late, never early, with its due instant,
// so the host's wake-up lag stays out of the model's clock, while the request
// ledger (latency, good/late) is read off the wall clock at resolution. The
// scheduler code paths (queueing, batching, dropping, priority, state sync)
// are literally the simulator's, byte for byte.
//
// The live runtime serves any validated pipeline, chains and DAGs alike:
// fan-out dispatches a request copy to every successor, fan-in merges when
// all expected branch copies arrive, with the same join semantics as the
// simulator (end-to-end latency is the maximum over paths).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
)

// Config describes a live serving deployment.
type Config struct {
	Spec *pipeline.Spec
	Lib  *profile.Library
	// PolicyName selects the dropping policy (default "pard").
	PolicyName string
	// Workers is the per-module worker count (default 2 each).
	Workers []int
	// SyncPeriod is the state-synchronization interval (default 250 ms; the
	// live demo favors responsiveness over the paper's 1 s).
	SyncPeriod time.Duration
	// BatchFrac as in the simulator (default 0.5).
	BatchFrac float64
	// NetDelay is the per-hop transfer delay between modules (default 0:
	// in-process hops are immediate).
	NetDelay time.Duration
	// JitterPct adds execution-duration jitter as in the simulator
	// (default 0: live batches take exactly the profiled duration).
	JitterPct float64
	// Seed drives the core's deterministic random streams.
	Seed int64
	// Scaling optionally enables the autoscaling engine (zero = fixed
	// worker counts).
	Scaling sched.ScalingConfig
	// Probes selects optional core recordings (diagnostics and tests).
	Probes sched.ProbeConfig
	// Exec overrides the executor driving the core. Nil selects the paced
	// wall-clock executor; tests inject a deterministic executor
	// (sched.ManualExecutor) to replay workloads reproducibly. Concurrent
	// Submit calls require a concurrency-safe executor (the wall-clock
	// default is; ManualExecutor must be driven from one goroutine).
	Exec sched.Executor
	// Admission configures estimator-driven admission control. The zero
	// value disables the gate, leaving the submit path bit-identical to a
	// server without one.
	Admission AdmissionConfig
}

// AdmissionConfig parameterizes the admission gate guarding submit(). When
// enabled, the gate consults the paper's proactive latency estimator (§4.2):
// once per sync period it refreshes a private core.Estimator from the state
// board and caches the predicted entry-to-sink latency; each arrival then
// compares that cached prediction (one atomic load, no allocation) against
// the SLO and is fast-rejected with HTTP 429 + Retry-After when it is
// predicted to miss — before consuming a queue slot or any scheduler work.
type AdmissionConfig struct {
	// Enabled turns the gate on.
	Enabled bool
	// SLOFactor scales the admission threshold: reject when the predicted
	// entry latency exceeds SLOFactor × SLO (default 1.0). Below 1 the gate
	// rejects earlier (headroom for estimator error); above 1 it admits
	// requests the estimator already condemns.
	SLOFactor float64
	// MaxInFlight additionally bounds concurrently outstanding requests
	// (0 = no bound). A hard backstop for the estimator's blind window:
	// the prediction only moves once per sync period, while a burst can
	// arrive entirely inside one.
	MaxInFlight int
	// RetryAfter is the hint sent on 429 responses (default: the sync
	// period — the earliest moment the gate's view of the board changes).
	RetryAfter time.Duration
}

// Outcome is the terminal state of a live request.
type Outcome string

// Outcomes.
const (
	OutcomeGood    Outcome = "good"
	OutcomeLate    Outcome = "late"
	OutcomeDropped Outcome = "dropped"
	// OutcomeRejected: refused by admission control before entering the
	// pipeline (HTTP 429 + Retry-After on the wire).
	OutcomeRejected Outcome = "rejected"
)

// Response is the JSON reply of POST /infer.
type Response struct {
	ID        uint64  `json:"id"`
	Outcome   Outcome `json:"outcome"`
	LatencyMS float64 `json:"latency_ms"`
	// DropModule is set when Outcome is "dropped": the module whose policy
	// dropped the request, or -1 when the server resolved it at shutdown
	// rather than by a policy decision.
	DropModule int `json:"drop_module"`
}

// MarshalJSON emits drop_module exactly when the outcome is "dropped" — for
// every drop, including module 0. (A plain `omitempty` tag silently omitted
// drops at module 0, which clients then decoded as the zero value:
// indistinguishable from "no drop module".)
func (r Response) MarshalJSON() ([]byte, error) {
	type wire struct {
		ID         uint64  `json:"id"`
		Outcome    Outcome `json:"outcome"`
		LatencyMS  float64 `json:"latency_ms"`
		DropModule *int    `json:"drop_module,omitempty"`
	}
	w := wire{ID: r.ID, Outcome: r.Outcome, LatencyMS: r.LatencyMS}
	if r.Outcome == OutcomeDropped {
		w.DropModule = &r.DropModule
	}
	return json.Marshal(w)
}

// pendingReq is one in-flight request: the core's Request, the client's
// response channel, and the intrusive links of the outstanding list. The
// structs come from a chunked slab (one allocation per slabChunk submits,
// mirroring the simulator's inject slab) and are never reused: a dropped
// DAG request can be referenced by stale branch entries inside the core
// until their queues next drain, so recycling the struct would alias two
// generations of requests.
type pendingReq struct {
	req  sched.Request
	done chan Response
	// prev/next link the outstanding list (guarded by Server.pmu); linked
	// is the membership latch that makes resolution exactly-once.
	prev, next *pendingReq
	linked     bool
}

// slabChunk is the pendingReq slab allocation granularity.
const slabChunk = 256

// respChans recycles per-request response channels. Only the /infer handler
// returns channels to the pool — after consuming the single buffered
// response, when no further send can happen. Channels handed to external
// Submit callers, or abandoned on the client-disconnect path, are never
// reused (a late resolution may still land in their buffer).
var respChans = sync.Pool{New: func() any { return make(chan Response, 1) }}

// Server hosts one pipeline on the shared scheduling core.
type Server struct {
	cfg  Config
	exec sched.Executor
	wall *sched.TimerExecutor // owned executor, nil when injected
	cl   *sched.Cluster

	// nextID allocates request IDs off the submit lock: IDs are issued in
	// submit order without serializing submitters on a mutex.
	nextID atomic.Uint64

	// Admission-gate state. gateEst is a private estimator refreshed once
	// per sync period on the executor (never concurrently — its rng draw
	// order is deterministic); gatePredicted caches its entry-latency
	// prediction in nanoseconds so the per-request admit check is one
	// atomic load. inFlight counts admitted-but-unresolved requests for
	// the MaxInFlight bound. All nil/zero when the gate is disabled.
	gateEst       *core.Estimator
	gatePredicted atomic.Int64
	inFlight      atomic.Int64
	sloLimitNs    int64
	retryAfter    string // precomputed Retry-After header value (seconds)

	// pmu guards the request-lifecycle state below. It is held only for
	// pointer-sized work (slab bump, list link/unlink, stop latch) — never
	// across Inject, timer arming, or metrics recording — so concurrent
	// submitters queue behind nanoseconds, not the whole enqueue path.
	pmu      sync.Mutex
	started  bool
	stopped  bool
	pending  *pendingReq // head of the outstanding-request list
	slab     []pendingReq
	slabNext int

	// cmu guards the metrics collector (finish callbacks run on the
	// executor; Stop's shutdown drain runs on the caller's goroutine).
	cmu sync.Mutex
	col *metrics.Collector
}

// New validates the config and builds (but does not start) a server for any
// validated pipeline spec — chain or DAG.
func New(cfg Config) (*Server, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("server: config needs a pipeline spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lib == nil {
		cfg.Lib = profile.DefaultLibrary()
	}
	if cfg.PolicyName == "" {
		cfg.PolicyName = "pard"
	}
	if cfg.SyncPeriod <= 0 {
		cfg.SyncPeriod = 250 * time.Millisecond
	}
	if cfg.BatchFrac <= 0 {
		cfg.BatchFrac = 0.5
	}
	n := cfg.Spec.N()
	if cfg.Workers == nil {
		cfg.Workers = make([]int, n)
		for i := range cfg.Workers {
			cfg.Workers[i] = 2
		}
	}
	if len(cfg.Workers) != n {
		return nil, fmt.Errorf("server: %d worker counts for %d modules", len(cfg.Workers), n)
	}
	if cfg.Admission.SLOFactor < 0 {
		return nil, fmt.Errorf("server: admission SLO factor %v < 0", cfg.Admission.SLOFactor)
	}
	if cfg.Admission.MaxInFlight < 0 {
		return nil, fmt.Errorf("server: admission max in-flight %d < 0", cfg.Admission.MaxInFlight)
	}
	if cfg.Admission.Enabled {
		if cfg.Admission.SLOFactor == 0 {
			cfg.Admission.SLOFactor = 1
		}
		if cfg.Admission.RetryAfter <= 0 {
			cfg.Admission.RetryAfter = cfg.SyncPeriod
		}
	}

	s := &Server{
		cfg: cfg,
		col: metrics.NewCollector(cfg.Spec.SLO, n),
	}
	if cfg.Admission.Enabled {
		// The gate's estimator draws from its own seed-derived stream so
		// its Monte-Carlo sampling never perturbs the policy's
		// deterministic streams (clock-parity invariant).
		rng := rand.New(rand.NewSource(cfg.Seed ^ admissionSeedSalt))
		s.gateEst = core.NewEstimator(cfg.Spec, core.DefaultEstimatorConfig(), rng)
		s.sloLimitNs = int64(float64(cfg.Spec.SLO) * cfg.Admission.SLOFactor)
		secs := int(cfg.Admission.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		s.retryAfter = strconv.Itoa(secs)
	}
	if cfg.Exec != nil {
		s.exec = cfg.Exec
	} else {
		s.wall = sched.NewTimerExecutor()
		s.exec = s.wall
	}
	cl, err := sched.New(sched.Config{
		Spec:       cfg.Spec,
		Lib:        cfg.Lib,
		PolicyName: cfg.PolicyName,
		Seed:       cfg.Seed,
		BatchFrac:  cfg.BatchFrac,
		Workers:    cfg.Workers,
		NetDelay:   cfg.NetDelay,
		JitterPct:  cfg.JitterPct,
		Scaling:    cfg.Scaling,
		Probes:     cfg.Probes,
		OnDone:     s.onDone,
		OnDrop:     s.onDrop,
	}, s.exec)
	if err != nil {
		if s.wall != nil {
			s.wall.Stop()
		}
		return nil, err
	}
	s.cl = cl
	return s, nil
}

// Start launches the periodic state-synchronization (and, when enabled,
// scaling) loops on the executor.
func (s *Server) Start() {
	s.pmu.Lock()
	if s.started || s.stopped {
		s.pmu.Unlock()
		return
	}
	s.started = true
	s.pmu.Unlock()

	s.every(s.cfg.SyncPeriod, "sync", s.cl.SyncTick)
	if s.cfg.Admission.Enabled {
		// Scheduled after "sync" so that at tied timestamps the modules
		// publish first and the gate reads the fresh board (executors fire
		// equal-time events in schedule order).
		s.every(s.cfg.SyncPeriod, "admission", s.refreshAdmission)
	}
	if s.cfg.Scaling.Enabled {
		s.every(s.cfg.Scaling.Period, "scale", s.cl.ScaleTick)
	}
}

// refreshAdmission recomputes the gate's cached entry-latency prediction
// from the board: Q_src + d_src + Lsub(source) — Eq. 1 evaluated at the
// pipeline entry. Runs on the executor once per sync period; submitters only
// ever read the cached atomic.
func (s *Server) refreshAdmission(now time.Duration) {
	b := s.cl.Board()
	s.gateEst.Refresh(b)
	s.gatePredicted.Store(int64(s.gateEst.EntryEstimate(b, s.cfg.Spec.Source())))
}

// admissionSeedSalt decorrelates the gate estimator's rng stream from the
// core's seed-derived streams.
const admissionSeedSalt int64 = 0x3e3779b97f4a7c15

// admitNow is the per-request admission decision: lock-free and
// allocation-free (an atomic counter load and an atomic prediction load).
func (s *Server) admitNow() bool {
	if !s.cfg.Admission.Enabled {
		return true
	}
	if m := s.cfg.Admission.MaxInFlight; m > 0 && s.inFlight.Load() >= int64(m) {
		return false
	}
	return s.gatePredicted.Load() <= s.sloLimitNs
}

// every runs fn on the executor each period until the server stops.
func (s *Server) every(period time.Duration, name string, fn func(now time.Duration)) {
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		if s.isStopped() {
			return
		}
		fn(now)
		s.exec.Schedule(now+period, name, tick)
	}
	s.exec.Schedule(s.exec.Now()+period, name, tick)
}

func (s *Server) isStopped() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.stopped
}

// Stop discards all pending events, waits for an in-flight callback, then
// resolves every request still outstanding inside the core as dropped
// (DropModule -1): no client is left hanging on a response channel the core
// will never fill. With an injected executor the drain happens immediately;
// callbacks the injected executor fires afterwards find their requests
// already resolved and do nothing.
func (s *Server) Stop() {
	s.pmu.Lock()
	if s.stopped {
		s.pmu.Unlock()
		return
	}
	s.stopped = true
	s.pmu.Unlock()
	if s.wall != nil {
		s.wall.Stop()
	}
	// After wall.Stop no finish callback can be running: detach the whole
	// outstanding list and resolve it. (unregister and this detach both
	// clear linked under pmu, so resolution stays exactly-once even when an
	// injected executor replays a late completion.)
	s.pmu.Lock()
	head := s.pending
	for pr := head; pr != nil; pr = pr.next {
		pr.linked = false
	}
	s.pending = nil
	s.pmu.Unlock()
	now := s.exec.Now()
	for pr := head; pr != nil; pr = pr.next {
		s.resolve(pr, Response{ID: pr.req.ID, Outcome: OutcomeDropped, DropModule: -1}, now, -1)
	}
}

// Submit enqueues one request and returns a channel delivering its outcome.
// After Stop the channel resolves immediately as dropped.
func (s *Server) Submit() <-chan Response {
	return s.submit().done
}

// submit is the data-plane hot path: allocate an ID (atomic), a pendingReq
// (slab bump) and a response channel (pool), register the request on the
// outstanding list, and inject the arrival. The lock covers only the slab
// and list pointers; a submit racing Stop either resolves here (stop latch
// observed), resolves in Stop's drain (registered before the latch), or
// resolves through the core — exactly once in every interleaving, because
// the arrival scheduled after the executor stopped never fires.
func (s *Server) submit() *pendingReq {
	now := s.exec.Now()
	id := s.nextID.Add(1) - 1
	done := respChans.Get().(chan Response)
	if !s.admitNow() {
		// Fast rejection: the request never touches the core — no queue
		// slot, no arrival timer, no scheduler work. Recorded so /stats
		// and Summary surface the rejection rate.
		pr := &pendingReq{done: done}
		pr.req.ID = id
		s.cmu.Lock()
		s.col.Add(metrics.Record{Send: now, Done: now, Outcome: metrics.Rejected, DropModule: -1})
		s.cmu.Unlock()
		done <- Response{ID: id, Outcome: OutcomeRejected}
		return pr
	}
	s.pmu.Lock()
	if s.stopped {
		s.pmu.Unlock()
		pr := &pendingReq{done: done}
		pr.req.ID = id
		done <- Response{ID: id, Outcome: OutcomeDropped, DropModule: -1}
		return pr
	}
	pr := s.allocLocked()
	pr.req = sched.Request{
		ID:         id,
		Send:       now,
		Deadline:   now + s.cfg.Spec.SLO,
		DropModule: -1,
		Payload:    pr,
	}
	pr.done = done
	pr.linked = true
	pr.prev = nil
	pr.next = s.pending
	if s.pending != nil {
		s.pending.prev = pr
	}
	s.pending = pr
	s.pmu.Unlock()
	s.inFlight.Add(1)
	s.cl.Inject(&pr.req, now)
	return pr
}

// allocLocked hands out the next pendingReq from the slab, growing it a
// chunk at a time — one allocation per slabChunk requests instead of one
// per request. Callers hold pmu.
func (s *Server) allocLocked() *pendingReq {
	if s.slabNext == len(s.slab) {
		s.slab = make([]pendingReq, slabChunk)
		s.slabNext = 0
	}
	pr := &s.slab[s.slabNext]
	s.slabNext++
	return pr
}

// unregister removes pr from the outstanding list, returning false when it
// was already resolved (by a finish callback or Stop's drain).
func (s *Server) unregister(pr *pendingReq) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if !pr.linked {
		return false
	}
	pr.linked = false
	if pr.prev != nil {
		pr.prev.next = pr.next
	} else {
		s.pending = pr.next
	}
	if pr.next != nil {
		pr.next.prev = pr.prev
	}
	return true
}

// onDone resolves a request that completed the sink module.
func (s *Server) onDone(req *sched.Request, _ time.Duration) {
	s.finish(req, Response{ID: req.ID, Outcome: OutcomeGood}, -1)
}

// onDrop resolves a request the policy dropped at module k.
func (s *Server) onDrop(req *sched.Request, k int, _ time.Duration) {
	s.finish(req, Response{ID: req.ID, Outcome: OutcomeDropped, DropModule: k}, k)
}

// finish records a terminal outcome decided by the core and delivers the
// client response, unless Stop's drain already resolved the request. The
// ledger is kept on the executor's clock at resolution, not on the callback's
// due instant: the paced wall-clock executor fires late, never early, so a
// completion that met its deadline in the model but was delivered past it is
// late, and no latency is reported shorter than what elapsed. (Under
// ManualExecutor the two instants are the same.)
func (s *Server) finish(req *sched.Request, resp Response, dropModule int) {
	pr := req.Payload.(*pendingReq)
	if !s.unregister(pr) {
		return
	}
	now := s.exec.Now()
	if resp.Outcome == OutcomeGood && now > req.Deadline {
		resp.Outcome = OutcomeLate
	}
	s.resolve(pr, resp, now, dropModule)
}

// resolve records a terminal outcome and delivers the client response. The
// caller must have unregistered pr (exactly-once contract); the buffered
// send therefore never blocks.
func (s *Server) resolve(pr *pendingReq, resp Response, now time.Duration, dropModule int) {
	s.inFlight.Add(-1)
	resp.LatencyMS = float64((now - pr.req.Send).Microseconds()) / 1000
	rec := metrics.Record{Send: pr.req.Send, Done: now, GPUTime: pr.req.GPU, DropModule: -1}
	switch resp.Outcome {
	case OutcomeGood:
		rec.Outcome = metrics.Good
	case OutcomeLate:
		rec.Outcome = metrics.Late
	case OutcomeDropped:
		rec.Outcome = metrics.DroppedOutcome
		rec.DropModule = dropModule
	}
	s.cmu.Lock()
	s.col.Add(rec)
	s.cmu.Unlock()
	pr.done <- resp
}

// Summary returns the live metrics snapshot.
func (s *Server) Summary() metrics.Summary {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.col.Summary()
}

// ExecStats returns the wall-clock executor's account of itself (events
// fired and pending, wake-up lag), nil under an injected executor.
func (s *Server) ExecStats() *sched.ExecStats {
	if s.wall == nil {
		return nil
	}
	st := s.wall.Stats()
	return &st
}

// statsDoc is the /stats document: the summary's fields with the executor's
// beside them. (metrics.Summary itself is gob-encoded in the sweep cache.)
type statsDoc struct {
	metrics.Summary
	Executor *sched.ExecStats `json:"executor,omitempty"`
}

// maxInferBody bounds what POST /infer accepts from one client.
const maxInferBody = 1 << 20

// bufPool recycles the encode-before-write staging buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a staging buffer first, so an encoding failure
// produces a clean 500 instead of an error message appended to a partial
// body with a misleading 200 status.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with a non-200 status code (encode-before-
// write still applies: an encoding failure yields a clean 500, never a
// partial body under the intended status).
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(buf.Bytes())
}

// Handler returns the HTTP data plane:
//
//	POST /infer   — run one request through the pipeline
//	GET  /stats   — metrics summary JSON, plus the executor's counters
//	GET  /healthz — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if r.ContentLength != 0 {
			// Execution is modelled, so a payload is read only to be bounded.
			if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, maxInferBody)); err != nil {
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					http.Error(w, "request body over 1 MiB", http.StatusRequestEntityTooLarge)
				} else {
					http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
				}
				return
			}
		}
		pr := s.submit()
		// A stoppable timer, not time.After: the common (resolved) case
		// must not leak a live 10×SLO timer per request until it fires.
		stall := time.NewTimer(10 * s.cfg.Spec.SLO)
		defer stall.Stop()
		select {
		case resp := <-pr.done:
			respChans.Put(pr.done)
			if resp.Outcome == OutcomeRejected {
				w.Header().Set("Retry-After", s.retryAfter)
				writeJSONStatus(w, http.StatusTooManyRequests, resp)
				return
			}
			writeJSON(w, resp)
		case <-r.Context().Done():
			// Client disconnected: stop waiting. The request keeps
			// draining through the core (its outcome still lands in the
			// metrics), but the channel cannot be reused — a late
			// resolution may still land in its buffer.
			return
		case <-stall.C:
			http.Error(w, "pipeline stalled", http.StatusGatewayTimeout)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, statsDoc{s.Summary(), s.ExecStats()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
