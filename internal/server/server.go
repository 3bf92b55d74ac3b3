// Package server is the wall-clock serving runtime: a thin shell over the
// shared scheduling core (internal/sched) — the same controller / worker /
// policy state machine the discrete-event simulator runs, on the same lane
// engine — paced by the wall clock (sched.NewTimerExecutor), and an HTTP data
// plane. Model execution is simulated by letting the profiled batch
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
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// DefaultSyncPeriod is the live state-synchronization interval: the live
// server favors responsiveness over the paper's 1 s.
const DefaultSyncPeriod = 250 * time.Millisecond

// Config describes a live serving deployment.
type Config struct {
	Spec *pipeline.Spec
	// Lib provides the model profiles (nil: the shared profile.Default()).
	Lib *profile.Library
	// PolicyName selects the dropping policy (default "pard").
	PolicyName string
	// Workers is the per-module worker count (default 2 each).
	Workers []int
	// SyncPeriod is the state-synchronization interval (default
	// DefaultSyncPeriod).
	SyncPeriod time.Duration
	// Seed drives the core's deterministic random streams.
	Seed int64
	// Exec, when set, drives the core instead of a wall clock of the
	// server's own: a clock the caller steps (sched.NewManualExecutor), to
	// replay workloads reproducibly. It must be driven from one goroutine,
	// Submit calls included; the wall-clock default is safe for concurrent
	// use. Stop stops it, which on a stepped clock does nothing.
	Exec *sched.LaneExecutor
	// MaxInFlight bounds the requests outstanding at once (0 = unbounded).
	// It is a memory bound, not a latency prediction: an arrival that finds
	// MaxInFlight requests unresolved is answered at once as rejected (HTTP
	// 429 + Retry-After: 1) and never touches the core.
	MaxInFlight int
}

// Outcome is the terminal state of a live request.
type Outcome string

// Outcomes.
const (
	OutcomeGood    Outcome = "good"
	OutcomeLate    Outcome = "late"
	OutcomeDropped Outcome = "dropped"
	// OutcomeRejected: refused at the MaxInFlight bound before entering the
	// pipeline (HTTP 429 + Retry-After on the wire).
	OutcomeRejected Outcome = "rejected"
)

// Response is the JSON reply of POST /infer. Its codec is in reply.go.
type Response struct {
	ID        uint64  `json:"id"`
	Outcome   Outcome `json:"outcome"`
	LatencyMS float64 `json:"latency_ms"`
	// DropModule is set when Outcome is "dropped": the module whose policy
	// dropped the request, or -1 when the server resolved it at shutdown
	// rather than by a policy decision.
	DropModule int `json:"drop_module"`
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

// respChans recycles per-request response channels. A channel carries one
// Response, and the goroutine that sends it puts the channel back right
// after the send: resolve, or submit's own immediate answers. The value may
// still sit in the buffer then, so takeChan hands a pooled channel out again
// only once it is empty — its one receiver has taken the value and, by
// Submit's contract, will not receive again. A channel nobody drains (a
// client that disconnected or timed out, a Submit caller that never reads)
// is left to the garbage collector.
var respChans = sync.Pool{New: func() any { return make(chan Response, 1) }}

// takeChan returns an empty response channel: a pooled one whose value has
// been received, or a new one.
func takeChan() chan Response {
	if ch := respChans.Get().(chan Response); len(ch) == 0 {
		return ch
	}
	return make(chan Response, 1)
}

// answer sends a request's one Response and returns its channel to the pool.
func answer(ch chan Response, resp Response) {
	ch <- resp
	respChans.Put(ch)
}

// Server hosts one pipeline on the shared scheduling core.
type Server struct {
	cfg  Config
	plan sched.Plan
	exec *sched.LaneExecutor
	cl   *sched.Cluster

	// nextID allocates request IDs off the submit lock: IDs are issued in
	// submit order without serializing submitters on a mutex.
	nextID atomic.Uint64

	// inFlight counts admitted-but-unresolved requests for the MaxInFlight
	// bound.
	inFlight atomic.Int64

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

	// cmu guards the metrics tally (finish callbacks run on the executor;
	// Stop's shutdown drain runs on the caller's goroutine). It keeps the
	// aggregates only, so the ledger's memory does not grow with the run.
	cmu   sync.Mutex
	tally *metrics.Tally
}

// withDefaults fills in the two defaults that are the server's own:
// DefaultSyncPeriod, and 2 workers a module of a spec it has. The plan checks
// the spec, the library and the workers.
func (cfg Config) withDefaults() Config {
	if cfg.SyncPeriod <= 0 {
		cfg.SyncPeriod = DefaultSyncPeriod
	}
	if cfg.Workers == nil && cfg.Spec != nil {
		cfg.Workers = slices.Repeat([]int{2}, cfg.Spec.N())
	}
	return cfg
}

// New validates the config and builds (but does not start) a server for any
// validated pipeline spec — chain or DAG. Its core hops between modules at
// once, runs batches for exactly their profiled duration and records no
// probes.
func New(cfg Config) (*Server, error) { return newServer(cfg, sched.Config{}) }

// newServer is New on a core whose NetDelay, JitterPct and Probes come from
// base, so that a test can run the live shell on the simulator's settings.
func newServer(cfg Config, base sched.Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("server: max in-flight %d < 0", cfg.MaxInFlight)
	}
	plan, err := sched.NewPlan(cfg.Spec, cfg.Lib, cfg.Workers, 0)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	s := &Server{
		cfg:   cfg,
		plan:  plan,
		tally: metrics.NewTally(cfg.Spec.N()),
	}
	s.exec = cfg.Exec
	if s.exec == nil {
		s.exec = sched.NewTimerExecutor()
	}
	base.PolicyName, base.Seed = cfg.PolicyName, cfg.Seed
	base.OnDone, base.OnDrop = s.onDone, s.onDrop
	cl, err := sched.New(plan, base, s.exec)
	if err != nil {
		if cfg.Exec == nil {
			s.exec.Stop()
		}
		return nil, err
	}
	s.cl = cl
	return s, nil
}

// Start launches the periodic state-synchronization loop on the executor; it
// runs until the server stops.
func (s *Server) Start() {
	s.pmu.Lock()
	if s.started || s.stopped {
		s.pmu.Unlock()
		return
	}
	s.started = true
	s.pmu.Unlock()

	period := s.cfg.SyncPeriod
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		if s.isStopped() {
			return
		}
		s.cl.SyncTick(now)
		s.exec.Schedule(now+period, "sync", tick)
	}
	s.exec.Schedule(s.exec.Now()+period, "sync", tick)
}

// admitNow reports whether an arrival fits under the MaxInFlight bound: one
// atomic load, no lock, no allocation.
func (s *Server) admitNow() bool {
	m := s.cfg.MaxInFlight
	return m == 0 || s.inFlight.Load() < int64(m)
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
	s.exec.Stop()
	// After exec.Stop no finish callback can be running: detach the whole
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
//
// The channel delivers exactly one Response. Receive it at most once: once
// received, the channel may carry a later request's Response, so a second
// receive could take another caller's outcome. Not receiving at all is fine;
// the channel is then never reused.
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
	done := takeChan()
	if !s.admitNow() {
		// Over the bound: the request never touches the core — no queue
		// slot, no arrival timer, no scheduler work. Recorded so /stats
		// and Summary surface the rejection rate.
		pr := &pendingReq{done: done}
		pr.req.ID = id
		s.cmu.Lock()
		s.tally.Add(metrics.Record{Send: now, Done: now, Outcome: metrics.Rejected, DropModule: -1})
		s.cmu.Unlock()
		answer(done, Response{ID: id, Outcome: OutcomeRejected})
		return pr
	}
	s.pmu.Lock()
	if s.stopped {
		s.pmu.Unlock()
		pr := &pendingReq{done: done}
		pr.req.ID = id
		answer(done, Response{ID: id, Outcome: OutcomeDropped, DropModule: -1})
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
	// A resolved request keeps no link into the list: a stale reference to
	// it (an event slot the engine has yet to overwrite) then pins its own
	// slab chunk, not every chunk back along its neighbours' links.
	pr.prev, pr.next = nil, nil
	return true
}

// onDone resolves a request that completed the sink module at due.
func (s *Server) onDone(req *sched.Request, due time.Duration) {
	s.finish(req, Response{ID: req.ID, Outcome: OutcomeGood}, -1, due)
}

// onDrop resolves a request the policy dropped at module k at due.
func (s *Server) onDrop(req *sched.Request, k int, due time.Duration) {
	s.finish(req, Response{ID: req.ID, Outcome: OutcomeDropped, DropModule: k}, k, due)
}

// finish records a terminal outcome the core decided at due and delivers the
// client response, unless Stop's drain already resolved the request. The
// ledger is kept on the executor's clock at resolution, never earlier than
// due: the wall clock commits late, never early, so a completion that met its
// deadline in the model but was delivered past it is late, and no latency is
// reported shorter than what elapsed. (On the manual clock a window may
// commit ahead of Now, and the ledger reads due.)
func (s *Server) finish(req *sched.Request, resp Response, dropModule int, due time.Duration) {
	pr := req.Payload.(*pendingReq)
	if !s.unregister(pr) {
		return
	}
	now := max(s.exec.Now(), due)
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
	s.tally.Add(rec)
	s.cmu.Unlock()
	answer(pr.done, resp)
}

// Summary returns the live metrics snapshot.
func (s *Server) Summary() metrics.Summary {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.tally.Summary()
}

// ExecStats returns the wall-clock executor's account of itself (events
// fired and pending, wake-up lag), nil under an injected executor, whose
// holder reads its Stats.
func (s *Server) ExecStats() *sched.ExecStats {
	if s.cfg.Exec != nil {
		return nil
	}
	st := s.exec.Stats()
	return &st
}

// statsDoc is the /stats document: the summary's fields with the executor's
// beside them.
type statsDoc struct {
	metrics.Summary
	Executor *sched.ExecStats `json:"executor,omitempty"`
}

// maxInferBody bounds what POST /infer accepts from one client.
const maxInferBody = 1 << 20

// contentTypeJSON is the Content-Type of every JSON reply, and retryAfter the
// Retry-After of every 429, each put into the header map as is (net/http only
// reads it), so no reply builds its own. A slot frees as soon as any request
// resolves, so one second is the shortest hint the header can carry.
var (
	contentTypeJSON = []string{"application/json"}
	retryAfter      = []string{"1"}
)

// bufPool recycles /stats' encode-before-write staging buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a staging buffer first, so an encoding failure
// produces a clean 500 instead of an error message appended to a partial
// body with a misleading 200 status.
func writeJSON(w http.ResponseWriter, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.Write(buf.Bytes())
}

// inferScratch is what one /infer request borrows for its lifetime: the
// stall timer and the reply buffer.
type inferScratch struct {
	stall *time.Timer
	reply []byte
}

// scratchPool recycles inferScratch. A pooled stall timer is always stopped.
// Since Go 1.23 (go.mod says 1.24) Stop and Reset discard a pending fire, so
// a timer that fired for one request can never wake the next one.
var scratchPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &inferScratch{stall: t, reply: make([]byte, 0, 128)}
}}

// Handler returns the HTTP data plane:
//
//	POST /infer      — run one request through the pipeline
//	GET  /stats      — metrics summary JSON, plus the executor's counters
//	GET  /deployment — what a simulator twin needs to rerun this server
//	GET  /healthz    — liveness
//
// Another method on these paths is answered 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", func(w http.ResponseWriter, r *http.Request) {
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
		sc := scratchPool.Get().(*inferScratch)
		defer scratchPool.Put(sc)
		// A stoppable timer, not time.After: the common (resolved) case
		// must not leave a live 10×SLO timer per request until it fires.
		sc.stall.Reset(10 * s.cfg.Spec.SLO)
		defer sc.stall.Stop()
		select {
		case resp := <-pr.done:
			h := w.Header()
			h["Content-Type"] = contentTypeJSON
			if resp.Outcome == OutcomeRejected {
				h["Retry-After"] = retryAfter
				w.WriteHeader(http.StatusTooManyRequests)
			}
			// The bytes json.NewEncoder(w).Encode(resp) writes.
			sc.reply = append(appendResponse(sc.reply[:0], resp), '\n')
			w.Write(sc.reply)
		case <-r.Context().Done():
			// Client disconnected: stop waiting. The request keeps
			// draining through the core (its outcome still lands in the
			// metrics); its channel, never drained, is never reused.
			return
		case <-sc.stall.C:
			http.Error(w, "pipeline stalled", http.StatusGatewayTimeout)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statsDoc{s.Summary(), s.ExecStats()})
	})
	mux.HandleFunc("GET /deployment", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.encodeDeployment()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header()["Content-Type"] = contentTypeJSON
		w.Write(doc)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// deployment is the GET /deployment document: the pipeline as Spec.Write writes
// it, the library as Library.Save does, the rest of the deployment as it runs.
type deployment struct {
	Pipeline   json.RawMessage `json:"pipeline"`
	Library    json.RawMessage `json:"library"`
	Policy     string          `json:"policy"`
	Workers    []int           `json:"workers"`
	SyncPeriod time.Duration   `json:"sync_period_ns"`
	Seed       int64           `json:"seed"`
}

// maxDeployment bounds the document FetchDeployment reads; the default
// library's is about 2 KiB.
const maxDeployment = 1 << 20

// encodeDeployment encodes the /deployment document of the server: its plan,
// its core's policy and its sync period and seed.
func (s *Server) encodeDeployment() ([]byte, error) {
	var spec, lib bytes.Buffer
	if err := s.plan.Spec.Write(&spec); err != nil {
		return nil, err
	}
	if err := s.plan.Lib.Save(&lib); err != nil {
		return nil, err
	}
	return json.Marshal(deployment{spec.Bytes(), lib.Bytes(), s.cl.Policy().Name(), s.plan.Workers, s.cfg.SyncPeriod, s.cfg.Seed})
}

// FetchDeployment reads the /deployment document of the server at target
// and returns the config of the deployment it describes. The document comes
// off the network, so it is bounded and checked before anything is built
// from it; an error names the field at fault.
func FetchDeployment(target string) (Config, error) {
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(target + "/deployment")
	if err != nil {
		return Config{}, fmt.Errorf("server: deployment: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxDeployment+1))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /deployment: %s", resp.Status)
	} else if err == nil && len(body) > maxDeployment {
		err = fmt.Errorf("document over %d bytes", maxDeployment)
	}
	var d deployment
	if err == nil {
		err = json.Unmarshal(body, &d)
	}
	if err != nil {
		return Config{}, fmt.Errorf("server: deployment: %w", err)
	}
	cfg := Config{PolicyName: d.Policy, Workers: d.Workers, SyncPeriod: d.SyncPeriod, Seed: d.Seed}
	if cfg.Spec, err = pipeline.Parse(bytes.NewReader(d.Pipeline)); err != nil {
		return Config{}, fmt.Errorf("server: deployment pipeline: %w", err)
	}
	if cfg.Lib, err = profile.Load(bytes.NewReader(d.Library)); err != nil {
		return Config{}, fmt.Errorf("server: deployment library: %w", err)
	}
	if !slices.Contains(policy.Names(), d.Policy) {
		return Config{}, fmt.Errorf("server: deployment policy: unknown policy %q", d.Policy)
	}
	// A document without workers is refused, not provisioned: the copy is
	// never nil.
	if _, err := sched.NewPlan(cfg.Spec, cfg.Lib, append([]int{}, d.Workers...), 0); err != nil {
		return Config{}, fmt.Errorf("server: deployment %w", err)
	}
	if d.SyncPeriod <= 0 {
		return Config{}, fmt.Errorf("server: deployment sync_period_ns: %v is not positive", d.SyncPeriod)
	}
	return cfg, nil
}

// RunTwin replays tr through the discrete-event twin of the deployment cfg
// describes, after the server's defaults: its worker counts pinned, no
// execution jitter and no time between modules, as the live core runs. The
// twin is the live core's engine on a virtual clock: the server replaying tr
// on the manual clock decides every request as the twin does.
func RunTwin(cfg Config, tr *trace.Trace) (*simgpu.Result, error) {
	return simgpu.Run(twinConfig(cfg, tr))
}

// twinConfig is the simulator configuration RunTwin runs; the twin's plan
// checks what the server's would.
func twinConfig(cfg Config, tr *trace.Trace) simgpu.Config {
	cfg = cfg.withDefaults()
	return simgpu.Config{
		Spec:         cfg.Spec,
		Lib:          cfg.Lib,
		PolicyName:   cfg.PolicyName,
		Trace:        tr,
		Seed:         cfg.Seed,
		SyncPeriod:   cfg.SyncPeriod,
		FixedWorkers: cfg.Workers,
		JitterPct:    -1,
		NetDelay:     -1,
	}
}
