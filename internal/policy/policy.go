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

// Setup carries everything policy constructors need.
type Setup struct {
	Spec *pipeline.Spec
	// Durs holds each module's profiled execution duration at its target
	// batch size (for fixed SLO splitting).
	Durs []time.Duration
	Rng  *rand.Rand
	// EstCfg configures PARD-family latency estimation; zero value gets
	// core.DefaultEstimatorConfig.
	EstCfg *core.EstimatorConfig
	// PriCfg configures the adaptive priority controller; zero value gets
	// core.DefaultPriorityConfig.
	PriCfg *core.PriorityConfig
}

// PARD-oc's DAGOR overload control (§5.3 footnote 8): a module whose average
// queueing delay exceeds ocThreshold marks the pipeline overloaded, and the
// source then admits an arrival with probability 1−ocAlpha.
const (
	ocThreshold = 50 * time.Millisecond
	ocAlpha     = 0.4
)

func (s Setup) estCfg() core.EstimatorConfig {
	if s.EstCfg != nil {
		return *s.EstCfg
	}
	return core.DefaultEstimatorConfig()
}

func (s Setup) priCfg() core.PriorityConfig {
	if s.PriCfg != nil {
		return *s.PriCfg
	}
	return core.DefaultPriorityConfig()
}

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

// decideKind enumerates the keep/drop conditions the unified implementation
// supports.
type decideKind int

const (
	decideNaive    decideKind = iota // always keep
	decideClipper                    // drop if already over cumulative split budget before inference
	decideCurrent                    // drop if current module would finish past the SLO (Nexus)
	decideEndToEnd                   // drop if estimated end-to-end latency exceeds the SLO (PARD)
	decideSplitCum                   // drop if finish-of-module exceeds cumulative fixed split budget
	decideWCLCum                     // like decideSplitCum with dynamically reallocated budgets
)

// unified implements Policy for every system; the constructors below select
// the configuration matching each paper baseline.
type unified struct {
	name   string
	queue  QueueKind
	decide decideKind

	spec *pipeline.Spec
	est  *core.Estimator // nil unless decideEndToEnd
	pcs  []*core.PriorityController

	// split budgets (clipper/split); recomputed in place each sync for WCL,
	// from the clamped WCLs in wcl
	budgets    []time.Duration
	cumBudgets []time.Duration
	wcl        []time.Duration
	durs       []time.Duration
	slo        time.Duration

	// PARD-oc state
	ocEnabled bool
	ocShed    []bool // per module: shed arrivals due to pipeline overload
	rng       *rand.Rand
}

func (p *unified) Name() string     { return p.name }
func (p *unified) Queue() QueueKind { return p.queue }

func (p *unified) PopEnd(module int) End {
	if p.pcs == nil {
		return MinEnd
	}
	if p.pcs[module].Mode() == core.HBF {
		return MaxEnd
	}
	return MinEnd
}

func (p *unified) Admit(module int, now time.Duration, r RequestInfo) bool {
	if !p.ocEnabled || !p.ocShed[module] {
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
	r.QueueDelay = r.QueueDelay || p.ocEnabled
	r.WCL = p.decide == decideWCLCum
	return r
}

func (p *unified) OnSync(now time.Duration, board *core.Board) {
	if p.est != nil {
		p.est.Refresh(board)
	}
	if p.pcs != nil {
		for k, pc := range p.pcs {
			s := board.Get(k)
			pc.Update(now, s.InputRate, s.Throughput)
		}
	}
	if p.decide == decideWCLCum {
		p.reallocWCL(board)
	}
	if p.ocEnabled {
		p.refreshShed(board)
	}
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
	return p.pcs[k]
}

// Estimator returns the shared latency estimator, or nil.
func (p *unified) Estimator() *core.Estimator { return p.est }

func newPriorityControllers(s Setup, cfg core.PriorityConfig) []*core.PriorityController {
	pcs := make([]*core.PriorityController, s.Spec.N())
	for k := range pcs {
		pcs[k] = core.NewPriorityController(cfg)
	}
	return pcs
}

func base(name string, s Setup) *unified {
	return &unified{
		name: name,
		spec: s.Spec,
		slo:  s.Spec.SLO,
		durs: append([]time.Duration(nil), s.Durs...),
		rng:  s.Rng,
	}
}

// NewNaive returns the no-dropping baseline.
func NewNaive(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("naive", s)
	p.queue = KindFIFO
	p.decide = decideNaive
	return p, nil
}

// NewClipper returns Clipper++: the end-to-end SLO is split into fixed
// per-module budgets proportional to profiled durations, and a request is
// dropped when it has already exceeded its cumulative budget before
// inference (§5.1 Baseline).
func NewClipper(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("clipper++", s)
	p.queue = KindFIFO
	p.decide = decideClipper
	p.budgets = core.SplitBudgets(nil, s.Spec.SLO, s.Durs)
	p.cumBudgets = core.CumulativeBudgets(nil, p.budgets)
	return p, nil
}

// NewNexus returns the Nexus baseline: reactive dropping in arrival order of
// requests that cannot finish the current module within the end-to-end SLO.
func NewNexus(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("nexus", s)
	p.queue = KindFIFO
	p.decide = decideCurrent
	return p, nil
}

// NewPARD returns the full system: proactive end-to-end estimation with
// bi-directional runtime information plus adaptive DEPQ priority with
// delayed transition.
func NewPARD(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("pard", s)
	p.queue = KindDEPQ
	p.decide = decideEndToEnd
	p.est = core.NewEstimator(s.Spec, s.estCfg(), s.Rng)
	p.pcs = newPriorityControllers(s, s.priCfg())
	return p, nil
}

// variant builds a PARD ablation sharing the DEPQ + adaptive priority but
// with a modified estimator configuration.
func variant(name string, s Setup, est core.EstimatorConfig) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base(name, s)
	p.queue = KindDEPQ
	p.decide = decideEndToEnd
	p.est = core.NewEstimator(s.Spec, est, s.Rng)
	p.pcs = newPriorityControllers(s, s.priCfg())
	return p, nil
}

// NewPARDBack considers preceding and current modules only (Lsub = 0):
// Clockwork/Nexus/Scrooge-style estimation with PARD's priority mechanism.
func NewPARDBack(s Setup) (Policy, error) {
	cfg := s.estCfg()
	cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = false, false, core.WaitZero
	return variant("pard-back", s, cfg)
}

// NewPARDSF accounts for downstream execution durations but ignores
// downstream queueing and batch wait (DREAM-style).
func NewPARDSF(s Setup) (Policy, error) {
	cfg := s.estCfg()
	cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = false, true, core.WaitZero
	return variant("pard-sf", s, cfg)
}

// NewPARDLower assumes downstream batch wait is zero (ΣW = 0).
func NewPARDLower(s Setup) (Policy, error) {
	cfg := s.estCfg()
	cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = true, true, core.WaitZero
	return variant("pard-lower", s, cfg)
}

// NewPARDUpper assumes downstream batch wait is maximal (ΣW = Σd_i).
func NewPARDUpper(s Setup) (Policy, error) {
	cfg := s.estCfg()
	cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = true, true, core.WaitUpper
	return variant("pard-upper", s, cfg)
}

// NewPARDSplit keeps PARD's decision precision but compares against fixed
// per-module SLO splits instead of the end-to-end objective.
func NewPARDSplit(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("pard-split", s)
	p.queue = KindDEPQ
	p.decide = decideSplitCum
	p.budgets = core.SplitBudgets(nil, s.Spec.SLO, s.Durs)
	p.cumBudgets = core.CumulativeBudgets(nil, p.budgets)
	p.pcs = newPriorityControllers(s, s.priCfg())
	return p, nil
}

// NewPARDWCL splits the latency budget dynamically in proportion to each
// module's recent worst-case latency.
func NewPARDWCL(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("pard-wcl", s)
	p.queue = KindDEPQ
	p.decide = decideWCLCum
	p.budgets = core.SplitBudgets(nil, s.Spec.SLO, s.Durs)
	p.cumBudgets = core.CumulativeBudgets(nil, p.budgets)
	p.pcs = newPriorityControllers(s, s.priCfg())
	return p, nil
}

// NewPARDOC adopts DAGOR's queue-delay-based overload control: a module
// whose average queueing delay exceeds ocThreshold makes the source admit
// arrivals at rate 1−ocAlpha; per-request decisions consider only the
// current module.
func NewPARDOC(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("pard-oc", s)
	p.queue = KindDEPQ
	p.decide = decideCurrent
	p.pcs = newPriorityControllers(s, s.priCfg())
	p.ocEnabled = true
	p.ocShed = make([]bool, s.Spec.N())
	return p, nil
}

// NewPARDAnalytic replaces the Monte-Carlo batch-wait quantile with the
// closed-form Irwin-Hall/CLT quantile (an extension beyond the paper: same
// λ semantics, no sampling cost, but blind to non-uniform wait shapes).
func NewPARDAnalytic(s Setup) (Policy, error) {
	cfg := s.estCfg()
	cfg.IncludeQueue, cfg.IncludeDur, cfg.Wait = true, true, core.WaitAnalytic
	return variant("pard-analytic", s, cfg)
}

// NewPARDFCFS keeps PARD's estimation but serves in arrival order.
func NewPARDFCFS(s Setup) (Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := base("pard-fcfs", s)
	p.queue = KindFIFO
	p.decide = decideEndToEnd
	p.est = core.NewEstimator(s.Spec, s.estCfg(), s.Rng)
	return p, nil
}

// NewPARDHBF pins the priority to High Budget First.
func NewPARDHBF(s Setup) (Policy, error) {
	cfg := core.FixedMode(core.HBF)
	s.PriCfg = &cfg
	return variant("pard-hbf", s, s.estCfg())
}

// NewPARDLBF pins the priority to Low Budget First (SHEPHERD-style).
func NewPARDLBF(s Setup) (Policy, error) {
	cfg := core.FixedMode(core.LBF)
	s.PriCfg = &cfg
	return variant("pard-lbf", s, s.estCfg())
}

// NewPARDInstant switches HBF/LBF instantly at μ = 1 (no hysteresis).
func NewPARDInstant(s Setup) (Policy, error) {
	cfg := s.priCfg()
	cfg.Instant = true
	s.PriCfg = &cfg
	return variant("pard-instant", s, s.estCfg())
}

// Factory builds a policy by name.
type Factory func(Setup) (Policy, error)

var registry = map[string]Factory{
	"naive":         NewNaive,
	"clipper++":     NewClipper,
	"nexus":         NewNexus,
	"pard":          NewPARD,
	"pard-back":     NewPARDBack,
	"pard-sf":       NewPARDSF,
	"pard-oc":       NewPARDOC,
	"pard-split":    NewPARDSplit,
	"pard-wcl":      NewPARDWCL,
	"pard-lower":    NewPARDLower,
	"pard-upper":    NewPARDUpper,
	"pard-instant":  NewPARDInstant,
	"pard-hbf":      NewPARDHBF,
	"pard-lbf":      NewPARDLBF,
	"pard-fcfs":     NewPARDFCFS,
	"pard-analytic": NewPARDAnalytic,
}

// New builds the named policy.
func New(name string, s Setup) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	return f(s)
}

// Names lists registered policies in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
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
