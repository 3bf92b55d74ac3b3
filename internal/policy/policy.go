// Package policy implements every request-dropping policy evaluated in the
// paper: the baselines (Naive, Clipper++, Nexus), PARD itself, and the
// Table 1 ablation variants. A policy plugs into the serving runtime
// (internal/simgpu or internal/server) through the Policy interface: it
// chooses the queue discipline, which DEPQ end to serve from, whether to
// admit a request at enqueue (DAGOR-style overload control), and — the core
// decision — whether to keep or drop each request at the moment it is placed
// into a batch (t_b in Fig. 5).
package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"pard/internal/core"
	"pard/internal/pipeline"
)

// QueueKind selects the per-worker queue discipline.
type QueueKind int

// Queue kinds.
const (
	// KindFIFO serves strictly in arrival order (reactive baselines).
	KindFIFO QueueKind = iota
	// KindDEPQ reorders by remaining latency budget via a min-max heap.
	KindDEPQ
)

// End selects which end of a DEPQ the worker pops during batch assembly.
type End int

// DEPQ ends.
const (
	// MinEnd pops the earliest deadline (Low Budget First).
	MinEnd End = iota
	// MaxEnd pops the latest deadline (High Budget First).
	MaxEnd
)

// RequestInfo is the per-request state visible to dropping decisions.
type RequestInfo struct {
	// Send is the client send time t_s.
	Send time.Duration
	// Deadline is Send + SLO.
	Deadline time.Duration
	// ArriveModule is t_r: when the request reached the current module.
	ArriveModule time.Duration
}

// DecideCtx carries the bi-directional runtime information available when a
// request is popped for batch assembly at module Module.
type DecideCtx struct {
	Req    RequestInfo
	Module int
	// Now is the decision time t_b.
	Now time.Duration
	// ExpectedStart is t_e: when the forming batch is expected to begin
	// executing (end of the batch currently on the GPU, or Now if idle).
	ExpectedStart time.Duration
	// ExecDur is d_k at the module's current target batch size.
	ExecDur time.Duration
	// SLO is the pipeline's end-to-end latency objective.
	SLO time.Duration
}

// Policy is a request dropping policy.
type Policy interface {
	// Name returns the policy's identifier (e.g. "pard", "nexus").
	Name() string
	// Queue returns the queue discipline workers should use.
	Queue() QueueKind
	// PopEnd returns the DEPQ end to serve from at the module right now.
	PopEnd(module int) End
	// Admit is consulted when a request is enqueued at a module; returning
	// false drops it immediately (admission control; only PARD-oc uses it).
	Admit(module int, now time.Duration, r RequestInfo) bool
	// Decide is consulted when a request is popped into a forming batch;
	// returning false drops it.
	Decide(ctx DecideCtx) bool
	// OnSync runs once per state-synchronization tick, after every module
	// published fresh ModuleState to the board. The board's snapshots, and
	// the batch-wait samples Get returns, are valid only until the next
	// tick's publication: a policy keeps what it needs by value or copies it.
	OnSync(now time.Duration, board *core.Board)
	// Reserve sizes the state OnSync feeds for a run of at most ticks sync
	// ticks, syncPeriod apart, so that it does not grow while the run
	// lasts. Storage only: every decision stays the same.
	Reserve(syncPeriod time.Duration, ticks int)
	// Reads reports which measured fields of ModuleState the policy reads.
	// The scheduling core keeps a module's window for a field, and
	// publishes it, only when the policy (or a probe) reads it; every field
	// the policy does not read is published at its zero value.
	Reads() Reads
}

// Reads names the measured ModuleState fields a policy reads. ProfiledDur,
// InputRate and Throughput cost no window and are always published.
type Reads struct {
	// QueueDelay: the PARD family with IncludeQueue, and PARD-oc.
	QueueDelay bool
	// BatchWait: the PARD family with Wait == WaitQuantile.
	BatchWait bool
	// WCL: PARD-WCL.
	WCL bool
}

// Setup carries everything New needs.
type Setup struct {
	Spec *pipeline.Spec
	// Durs holds each module's profiled execution duration at its target
	// batch size (for fixed SLO splitting).
	Durs []time.Duration
	Rng  *rand.Rand
	// Lambda is the PARD family's batch-wait quantile λ; zero or less gets
	// core.DefaultEstimatorConfig's.
	Lambda float64
	// PriorityWindow is the adaptive priority controller's smoothing
	// window; zero or less gets core.DefaultPriorityWindow.
	PriorityWindow time.Duration
}

// PARD-oc's DAGOR overload control (§5.3 footnote 8): a module whose average
// queueing delay exceeds ocThreshold marks the pipeline overloaded, and the
// source then admits an arrival with probability 1−ocAlpha.
const (
	ocThreshold = 50 * time.Millisecond
	ocAlpha     = 0.4
)

func (s Setup) validate() error {
	if s.Spec == nil {
		return fmt.Errorf("policy: setup needs a pipeline spec")
	}
	if len(s.Durs) != s.Spec.N() {
		return fmt.Errorf("policy: %d profiled durations for %d modules", len(s.Durs), s.Spec.N())
	}
	if s.Rng == nil {
		return fmt.Errorf("policy: setup needs a random source")
	}
	return nil
}

// decideKind enumerates the keep/drop conditions a row can select.
type decideKind int

const (
	decideNaive    decideKind = iota // always keep
	decideClipper                    // drop if already over cumulative split budget before inference
	decideCurrent                    // drop if current module would finish past the SLO (Nexus)
	decideEndToEnd                   // drop if estimated end-to-end latency exceeds the SLO (PARD)
	decideSplitCum                   // drop if finish-of-module exceeds cumulative fixed split budget
	decideWCLCum                     // like decideSplitCum with dynamically reallocated budgets
)

// priorityRule selects which DEPQ end a row's modules pop.
type priorityRule int

const (
	priNone     priorityRule = iota // always the min end (FIFO rows)
	priAdaptive                     // delayed HBF/LBF transition per module (§4.3)
	priInstant                      // HBF/LBF switch at μ = 1, no hysteresis
	priHBF                          // pinned High Budget First from the first sync
	priLBF                          // pinned Low Budget First
)

// row is one system's configuration. The no* fields name the downstream
// terms Lsub leaves out; they and wait matter only to decideEndToEnd.
type row struct {
	queue    QueueKind
	decide   decideKind
	noQueue  bool          // Lsub leaves out downstream queueing ΣQ
	noDur    bool          // Lsub leaves out downstream execution ΣD
	wait     core.WaitMode // how Lsub takes downstream batch wait ΣW
	priority priorityRule
	dagor    bool // DAGOR admission at the source (PARD-oc)
}

// table holds every system of the evaluation, one row each.
var table = map[string]row{
	// No dropping.
	"naive": {queue: KindFIFO, decide: decideNaive},
	// Clipper++: the SLO split into fixed per-module budgets proportional
	// to profiled durations; drops a request already over its cumulative
	// budget before inference (§5.1 Baseline).
	"clipper++": {queue: KindFIFO, decide: decideClipper},
	// Nexus: reactive dropping, in arrival order, of requests that cannot
	// finish the current module within the end-to-end SLO.
	"nexus": {queue: KindFIFO, decide: decideCurrent},
	// PARD: proactive end-to-end estimation with bi-directional runtime
	// information, adaptive DEPQ priority with delayed transition.
	"pard": {queue: KindDEPQ, decide: decideEndToEnd, priority: priAdaptive},
	// Preceding and current modules only (Lsub = 0): Clockwork/Nexus/
	// Scrooge-style estimation with PARD's priority mechanism.
	"pard-back": {queue: KindDEPQ, decide: decideEndToEnd, noQueue: true, noDur: true, wait: core.WaitZero, priority: priAdaptive},
	// Downstream execution only, no queueing or batch wait (DREAM-style).
	"pard-sf": {queue: KindDEPQ, decide: decideEndToEnd, noQueue: true, wait: core.WaitZero, priority: priAdaptive},
	// Downstream batch wait assumed zero (ΣW = 0).
	"pard-lower": {queue: KindDEPQ, decide: decideEndToEnd, wait: core.WaitZero, priority: priAdaptive},
	// Downstream batch wait assumed maximal (ΣW = Σd_i).
	"pard-upper": {queue: KindDEPQ, decide: decideEndToEnd, wait: core.WaitUpper, priority: priAdaptive},
	// PARD's decision precision against fixed per-module SLO splits.
	"pard-split": {queue: KindDEPQ, decide: decideSplitCum, priority: priAdaptive},
	// Budgets split in proportion to each module's recent worst-case latency.
	"pard-wcl": {queue: KindDEPQ, decide: decideWCLCum, priority: priAdaptive},
	// DAGOR's overload control: a module queueing longer than ocThreshold
	// makes the source admit at rate 1−ocAlpha; decisions see the current
	// module only.
	"pard-oc": {queue: KindDEPQ, decide: decideCurrent, priority: priAdaptive, dagor: true},
	// Closed-form Irwin-Hall/CLT batch-wait quantile in place of Monte Carlo
	// (an extension beyond the paper: same λ, no sampling, blind to
	// non-uniform wait shapes).
	"pard-analytic": {queue: KindDEPQ, decide: decideEndToEnd, wait: core.WaitAnalytic, priority: priAdaptive},
	// PARD's estimation, served in arrival order.
	"pard-fcfs": {queue: KindFIFO, decide: decideEndToEnd},
	// Priority pinned to High Budget First.
	"pard-hbf": {queue: KindDEPQ, decide: decideEndToEnd, priority: priHBF},
	// Priority pinned to Low Budget First (SHEPHERD-style).
	"pard-lbf": {queue: KindDEPQ, decide: decideEndToEnd, priority: priLBF},
	// HBF/LBF switched instantly at μ = 1 (no hysteresis).
	"pard-instant": {queue: KindDEPQ, decide: decideEndToEnd, priority: priInstant},
}

// unified implements Policy for every row of table.
type unified struct {
	name string
	row

	spec *pipeline.Spec
	est  *core.Estimator // nil unless decideEndToEnd
	pcs  []core.PriorityController
	// pinned is the end a row without controllers pops: MinEnd, and for a
	// pinned HBF row MaxEnd from its first sync on.
	pinned End

	// split budgets (clipper/split); recomputed in place each sync for WCL,
	// from the clamped WCLs in wcl
	budgets    []time.Duration
	cumBudgets []time.Duration
	wcl        []time.Duration
	durs       []time.Duration
	slo        time.Duration

	// PARD-oc state
	ocShed []bool // per module: shed arrivals due to pipeline overload
	rng    *rand.Rand
}

// New builds the named policy from its row of table.
func New(name string, s Setup) (Policy, error) {
	r, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := &unified{
		name: name,
		row:  r,
		spec: s.Spec,
		slo:  s.Spec.SLO,
		durs: append([]time.Duration(nil), s.Durs...),
		rng:  s.Rng,
	}
	switch r.decide {
	case decideClipper, decideSplitCum, decideWCLCum:
		n := s.Spec.N()
		b := make([]time.Duration, 2*n)
		p.budgets = core.SplitBudgets(b[:0:n], s.Spec.SLO, s.Durs)
		p.cumBudgets = core.CumulativeBudgets(b[n:n], p.budgets)
	case decideEndToEnd:
		cfg := core.DefaultEstimatorConfig()
		if s.Lambda > 0 {
			cfg.Lambda = s.Lambda
		}
		cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = !r.noQueue, !r.noDur, r.wait
		p.est = core.NewEstimator(s.Spec, cfg, s.Rng)
	}
	if r.priority == priAdaptive || r.priority == priInstant {
		window := core.DefaultPriorityWindow
		if s.PriorityWindow > 0 {
			window = s.PriorityWindow
		}
		p.pcs = core.NewPriorityControllers(s.Spec.N(), window, r.priority == priInstant)
	}
	if r.dagor {
		p.ocShed = make([]bool, s.Spec.N())
	}
	return p, nil
}

func (p *unified) Name() string     { return p.name }
func (p *unified) Queue() QueueKind { return p.queue }

func (p *unified) PopEnd(module int) End {
	if p.pcs == nil {
		return p.pinned
	}
	if p.pcs[module].Mode() == core.HBF {
		return MaxEnd
	}
	return MinEnd
}

func (p *unified) Admit(module int, now time.Duration, r RequestInfo) bool {
	if !p.dagor || !p.ocShed[module] {
		return true
	}
	// DAGOR overload control: admit at rate (1-α) while shedding.
	return p.rng.Float64() >= ocAlpha
}

func (p *unified) Decide(ctx DecideCtx) bool {
	switch p.decide {
	case decideNaive:
		return true
	case decideClipper:
		// Clipper++ drops a request that has already exceeded its share of
		// the split SLO before inference. The check is two-part, mirroring
		// the splitting design's inflexibility (§5.3 "splitting restricts
		// latency budget flexibility"): the module-local latency must fit
		// the module budget, and the accumulated latency must fit the
		// cumulative budget — unused upstream slack is NOT inherited.
		if ctx.Now-ctx.Req.ArriveModule > p.budgets[ctx.Module] {
			return false
		}
		return ctx.Now-ctx.Req.Send <= p.cumBudgets[ctx.Module]
	case decideCurrent:
		// Nexus: accumulated latency plus current module's inference must
		// fit in the end-to-end SLO; downstream modules are ignored.
		return ctx.ExpectedStart+ctx.ExecDur-ctx.Req.Send <= p.slo
	case decideEndToEnd:
		l := p.est.EstimateEndToEnd(ctx.Req.Send, ctx.ExpectedStart, ctx.ExecDur, ctx.Module)
		return l <= p.slo
	case decideSplitCum, decideWCLCum:
		// PARD-precision decisions (t_e known) against split budgets, with
		// the same module-local inflexibility as Clipper++.
		if ctx.ExpectedStart+ctx.ExecDur-ctx.Req.ArriveModule > p.budgets[ctx.Module] {
			return false
		}
		return ctx.ExpectedStart+ctx.ExecDur-ctx.Req.Send <= p.cumBudgets[ctx.Module]
	default:
		panic(fmt.Sprintf("policy %s: unknown decide kind %d", p.name, p.decide))
	}
}

func (p *unified) Reads() Reads {
	var r Reads
	if p.est != nil {
		cfg := p.est.Config()
		r.QueueDelay = cfg.IncludeQueue
		r.BatchWait = cfg.Wait == core.WaitQuantile
	}
	r.QueueDelay = r.QueueDelay || p.dagor
	r.WCL = p.decide == decideWCLCum
	return r
}

func (p *unified) OnSync(now time.Duration, board *core.Board) {
	if p.est != nil {
		p.est.Refresh(board)
	}
	for k := range p.pcs {
		s := board.Get(k)
		p.pcs[k].Update(now, s.InputRate, s.Throughput)
	}
	if p.priority == priHBF {
		p.pinned = MaxEnd
	}
	if p.decide == decideWCLCum {
		p.reallocWCL(board)
	}
	if p.dagor {
		p.refreshShed(board)
	}
}

func (p *unified) Reserve(syncPeriod time.Duration, ticks int) {
	core.ReservePriorityControllers(p.pcs, syncPeriod, ticks)
}

// reallocWCL recomputes per-module budgets proportionally to each module's
// recent worst-case latency (PARD-WCL). WCL inputs are clamped to
// [1.2·d_k, SLO/2] so a single congested module cannot starve the others of
// budget entirely (without the clamp the realloc death-spirals: a starved
// module drops everything, its WCL collapses, and its budget shrinks
// further).
func (p *unified) reallocWCL(board *core.Board) {
	n := p.spec.N()
	p.wcl = slices.Grow(p.wcl[:0], n)[:n]
	wcl := p.wcl
	any := false
	for k := 0; k < n; k++ {
		wcl[k] = board.Get(k).WCL
		if wcl[k] > 0 {
			any = true
		}
	}
	if !any {
		return // keep the initial profile-proportional split until data exists
	}
	for k := range wcl {
		lo := p.durs[k] + p.durs[k]/5
		if wcl[k] < lo {
			wcl[k] = lo
		}
		if wcl[k] > p.slo/2 {
			wcl[k] = p.slo / 2
		}
	}
	p.budgets = core.SplitBudgets(p.budgets, p.slo, wcl)
	p.cumBudgets = core.CumulativeBudgets(p.cumBudgets, p.budgets)
}

// refreshShed recomputes admission shedding: DAGOR propagates overload
// upstream to the *entry point*, which then admits incoming requests at
// rate 1−ocAlpha. Shedding only at the pipeline source (rather than at every
// hop) avoids compounding the admission probability across modules.
func (p *unified) refreshShed(board *core.Board) {
	n := p.spec.N()
	overloaded := false
	for k := 0; k < n; k++ {
		if board.Get(k).QueueDelay > ocThreshold {
			overloaded = true
			break
		}
	}
	for k := range p.ocShed {
		p.ocShed[k] = false
	}
	p.ocShed[p.spec.Source()] = overloaded
}

// Priority returns module k's priority controller, or nil (exposed for the
// Fig. 13 load-factor probe).
func (p *unified) Priority(k int) *core.PriorityController {
	if p.pcs == nil {
		return nil
	}
	return &p.pcs[k]
}

// Names lists the policies of table in sorted order.
func Names() []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Comparison lists the four systems of the headline comparison (Figs. 8-10).
func Comparison() []string { return []string{"pard", "nexus", "clipper++", "naive"} }

// Ablations lists the Table 1 variants plus PARD itself (Fig. 11 order).
func Ablations() []string {
	return []string{
		"pard", "pard-back", "pard-sf", "pard-oc", "pard-split", "pard-wcl",
		"pard-upper", "pard-lower", "pard-instant", "pard-hbf", "pard-lbf", "pard-fcfs",
	}
}
