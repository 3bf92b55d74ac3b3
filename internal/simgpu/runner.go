package simgpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/sched"
	"pard/internal/wire"
)

// Result is everything one simulation run produces.
type Result struct {
	// Collector holds the outcome counts and derived metrics.
	Collector *metrics.Collector
	// Summary is Collector.Summary(), precomputed.
	Summary metrics.Summary
	// PolicyName echoes the configured policy.
	PolicyName string
	// Workload is "<app>-<trace>".
	Workload string

	// TargetBatches and ProfiledDurs are the offline-profiling outputs used.
	TargetBatches []int
	ProfiledDurs  []time.Duration
	// PeakWorkers is the maximum concurrently active workers per module.
	PeakWorkers []int

	// Probe outputs (nil unless the corresponding probe was enabled).
	QueueDelay       []*metrics.Series // per module, ms
	LoadFactor       *metrics.Series   // module LoadModule's μ
	ModeSeries       *metrics.Series   // 0=LBF, 1=HBF
	Consumed         []*metrics.Series // per module consumed budget, ms
	Remaining        []*metrics.Series // per module remaining budget at arrival, ms
	WaitSamples      [][]float64       // per module batch-wait samples, seconds
	SumQ, SumW, SumD []float64         // per completed request, seconds

	// PrioritySwitches counts HBF↔LBF transitions (Fig. 13).
	PrioritySwitches int
	// SimEvents is the number of engine events dispatched.
	SimEvents uint64
}

// A Result's wire form, shared by a sweep session's UnitResult and the sweep
// engine's disk cache, in the codec of package wire:
//
//	Collector | PolicyName | Workload | TargetBatches | ProfiledDurs |
//	PeakWorkers | QueueDelay | LoadFactor | ModeSeries | Consumed |
//	Remaining | WaitSamples | SumQ | SumW | SumD | PrioritySwitches |
//	SimEvents
//
// Summary does not travel: it is Collector.Summary(), recomputed on decode.

// AppendResult appends r's wire form. r.Collector must be set.
func AppendResult(b []byte, r *Result) []byte {
	b, _ = r.Collector.AppendBinary(b) // never fails
	b = wire.AppendStr(b, r.PolicyName)
	b = wire.AppendStr(b, r.Workload)
	b = wire.AppendInts(b, r.TargetBatches)
	b = wire.AppendInts(b, r.ProfiledDurs)
	b = wire.AppendInts(b, r.PeakWorkers)
	b = appendSeriesList(b, r.QueueDelay)
	b = metrics.AppendSeries(b, r.LoadFactor)
	b = metrics.AppendSeries(b, r.ModeSeries)
	b = appendSeriesList(b, r.Consumed)
	b = appendSeriesList(b, r.Remaining)
	b = binary.AppendUvarint(b, uint64(len(r.WaitSamples)))
	for _, w := range r.WaitSamples {
		b = wire.AppendFloats(b, w)
	}
	for _, col := range [...][]float64{r.SumQ, r.SumW, r.SumD} {
		b = wire.AppendFloats(b, col)
	}
	b = binary.AppendVarint(b, int64(r.PrioritySwitches))
	return binary.AppendUvarint(b, r.SimEvents)
}

func appendSeriesList(b []byte, list []*metrics.Series) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	for _, s := range list {
		b = metrics.AppendSeries(b, s)
	}
	return b
}

// ReadResult decodes what AppendResult wrote, failing rd on a result whose
// per-module slices do not fit its own collector (see Fits).
func ReadResult(rd *wire.Reader) *Result {
	r := &Result{Collector: metrics.ReadCollector(rd)}
	r.PolicyName, r.Workload = rd.Str(), rd.Str()
	r.TargetBatches = wire.Ints[int](rd)
	r.ProfiledDurs = wire.Ints[time.Duration](rd)
	r.PeakWorkers = wire.Ints[int](rd)
	r.QueueDelay = readSeriesList(rd)
	r.LoadFactor, r.ModeSeries = metrics.ReadSeries(rd), metrics.ReadSeries(rd)
	r.Consumed, r.Remaining = readSeriesList(rd), readSeriesList(rd)
	if n := rd.Count(1); n > 0 {
		r.WaitSamples = make([][]float64, n)
		for i := range r.WaitSamples {
			r.WaitSamples[i] = rd.Floats(nil)
		}
	}
	r.SumQ, r.SumW, r.SumD = rd.Floats(nil), rd.Floats(nil), rd.Floats(nil)
	r.PrioritySwitches = wire.Integer[int](rd)
	r.SimEvents = rd.Uint()
	if rd.Err() != nil {
		return nil
	}
	if err := r.shape(); err != nil {
		rd.Fail(err)
		return nil
	}
	r.Summary = r.Collector.Summary()
	return r
}

func readSeriesList(rd *wire.Reader) []*metrics.Series {
	n := rd.Count(1)
	if n == 0 {
		return nil
	}
	list := make([]*metrics.Series, n)
	for i := range list {
		list[i] = metrics.ReadSeries(rd)
	}
	return list
}

// Fits reports why r cannot be what a run of a pipeline of mods modules with
// probes p returns, or nil. A sweep's consumers index the per-module slices
// and read the series of each probe they enabled without looking, so a
// result from elsewhere — a peer, a disk — is checked before it is served.
func (r *Result) Fits(mods int, p ProbeConfig) error {
	if r.Collector == nil {
		return errors.New("simgpu: result has no collector")
	}
	if err := r.shape(); err != nil {
		return err
	}
	if r.Collector.NModules != mods {
		return fmt.Errorf("simgpu: result of %d modules for a pipeline of %d", r.Collector.NModules, mods)
	}
	perModule := func(on bool) int {
		if on {
			return mods
		}
		return 0
	}
	for _, probe := range [...]struct {
		name string
		on   bool
		list []*metrics.Series
	}{
		{"queue-delay", p.QueueDelay, r.QueueDelay},
		{"consumed-budget", p.Budget, r.Consumed},
		{"remaining-budget", p.Budget, r.Remaining},
	} {
		if want := perModule(probe.on); len(probe.list) != want || slices.Contains(probe.list, nil) {
			return fmt.Errorf("simgpu: result has %d %s series (nil among them: %t), want %d", len(probe.list), probe.name, slices.Contains(probe.list, nil), want)
		}
	}
	if want := perModule(p.Decomposition); len(r.WaitSamples) != want {
		return fmt.Errorf("simgpu: result has %d batch-wait sample sets, want %d", len(r.WaitSamples), want)
	}
	if lf, mode := r.LoadFactor, r.ModeSeries; (lf != nil) != p.LoadFactor || (mode != nil) != p.LoadFactor ||
		lf != nil && mode != nil && lf.Len() != mode.Len() {
		return fmt.Errorf("simgpu: result's load-factor and priority-mode series do not match its load-factor probe (%t)", p.LoadFactor)
	}
	return nil
}

// shape checks r against its own collector's module count: one target
// batch, profiled duration and peak per module, none or one entry per module
// in each probe list, and per-request decomposition columns of one length.
func (r *Result) shape() error {
	n := r.Collector.NModules
	switch {
	case len(r.TargetBatches) != n || len(r.ProfiledDurs) != n || len(r.PeakWorkers) != n:
		return fmt.Errorf("simgpu: result has %d target batches, %d profiled durations and %d worker peaks for %d modules",
			len(r.TargetBatches), len(r.ProfiledDurs), len(r.PeakWorkers), n)
	case len(r.SumW) != len(r.SumQ) || len(r.SumD) != len(r.SumQ):
		return fmt.Errorf("simgpu: result's per-request decomposition has %d, %d and %d entries", len(r.SumQ), len(r.SumW), len(r.SumD))
	}
	for _, k := range [...]int{len(r.QueueDelay), len(r.Consumed), len(r.Remaining), len(r.WaitSamples)} {
		if k != 0 && k != n {
			return fmt.Errorf("simgpu: result has a probe list of %d entries for %d modules", k, n)
		}
	}
	return nil
}

// Runner executes one configuration: the shared scheduling core
// (internal/sched) instantiated on the per-module lane engine's virtual
// clock, plus trace injection and result collection.
type Runner struct {
	cfg  Config
	plan sched.Plan
	eng  *sched.LaneExecutor
	cl   *sched.Cluster

	requests    []*sched.Request
	slab        []sched.Request // backing store; wire request IDs index it
	outstanding int

	sumQ, sumW, sumD []float64
	sampleCounter    int

	// Lane-group placement (zero/nil outside a multi-group topology). Each
	// group runner holds a complete cluster replica and executes only its
	// owned lanes; reports carries the peers' owner-only per-module state
	// (probes, peak workers) after the end-of-run Finish exchange.
	topo    sched.Topology
	tr      sched.Transport
	reports map[int]*sched.ModuleReport
	fired   uint64 // global event count from the Finish exchange
}

// New validates the configuration, plans the deployment and assembles the
// cluster.
func New(cfg Config) (*Runner, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// The workers are the fixed counts, or sized for the early trace rate and
	// left to the scaling engine.
	var rate float64
	if full.FixedWorkers == nil {
		if rate = full.Trace.RateIn(0, 10*time.Second); rate <= 0 {
			rate = full.Trace.MeanRate()
		}
	}
	plan, err := sched.NewPlan(full.Spec, full.Lib, full.FixedWorkers, rate)
	if err != nil {
		return nil, fmt.Errorf("simgpu: %w", err)
	}

	// One event lane per module, conservative lookahead = the per-hop
	// network delay.
	r := &Runner{cfg: full, plan: plan}
	if rt := full.Remote; rt != nil {
		// One lane group of a multi-group topology: the full cluster is
		// built as a replica, but only owned lanes (module k with
		// k % Groups == Group) execute; everything else arrives through the
		// transport's lockstep exchanges.
		r.topo = sched.Topology{Groups: rt.Groups, Group: rt.Group}
		r.tr = rt.Transport
		r.eng, err = sched.NewLaneExecutorTopo(full.Spec.N(), full.NetDelay, r.topo, r.tr)
		if err != nil {
			return nil, err
		}
	} else {
		r.eng = sched.NewLaneExecutor(full.Spec.N(), full.NetDelay)
	}
	cl, err := sched.New(plan, sched.Config{
		PolicyName:     full.PolicyName,
		Seed:           full.Seed,
		NetDelay:       full.NetDelay,
		JitterPct:      full.JitterPct,
		Probes:         full.Probes,
		Lambda:         full.Lambda,
		PriorityWindow: full.PriorityWindow,
		OnDone:         r.onDone,
		OnDrop:         r.onDrop,
		Resolve:        r.resolveRequest,
	}, r.eng)
	if err != nil {
		return nil, err
	}
	r.cl = cl
	return r, nil
}

// onDone observes a request completing the sink module.
func (r *Runner) onDone(req *sched.Request, now time.Duration) {
	r.outstanding--
	if r.cfg.Probes.Decomposition {
		r.sampleCounter++
		if r.sampleCounter%r.cfg.Probes.Every() == 0 {
			r.sumQ = append(r.sumQ, req.SumQ.Seconds())
			r.sumW = append(r.sumW, req.SumW.Seconds())
			r.sumD = append(r.sumD, req.SumD.Seconds())
		}
	}
}

// onDrop observes a request dropped at a module.
func (r *Runner) onDrop(req *sched.Request, k int, now time.Duration) {
	r.outstanding--
}

// resolveRequest maps a wire request ID back onto this process's slab — the
// Resolve hook multi-group topologies use to rehydrate requests that crossed
// the lane-group boundary by ID.
func (r *Runner) resolveRequest(id uint64) *sched.Request {
	if id < uint64(len(r.slab)) {
		return &r.slab[id]
	}
	return nil
}

// inject schedules all trace arrivals as client sends into the source
// module. Requests live in one slab — a single allocation instead of one
// per arrival — and r.requests points into it (pointer identity per request
// is preserved for the run's lifetime, which the core relies on). In a
// multi-group topology every replica injects the full trace: request i is
// &slab[i] on every group, so wire IDs resolve to the same logical request
// everywhere.
func (r *Runner) inject() {
	slo := r.cfg.Spec.SLO
	r.slab = make([]sched.Request, r.cfg.Trace.Len())
	slab := r.slab
	r.requests = make([]*sched.Request, 0, len(slab))
	r.eng.Reserve(r.cfg.Spec.Source(), len(slab))
	r.cl.Reserve(r.cfg.Trace.Arrivals, r.cfg.Trace.Duration, r.cfg.SyncPeriod)
	for i, at := range r.cfg.Trace.Arrivals {
		req := &slab[i]
		req.ID = uint64(i)
		req.Send = at
		req.Deadline = at + slo
		req.DropModule = -1
		r.requests = append(r.requests, req)
		r.outstanding++
		r.cl.Inject(req, at)
	}
}

// drained reports whether the run can stop ticking.
func (r *Runner) drained(now time.Duration) bool {
	return r.outstanding <= 0 && now >= r.cfg.Trace.Duration
}

// Run executes the simulation to completion and returns the results.
func (r *Runner) Run() (*Result, error) {
	if r.requests != nil {
		return nil, fmt.Errorf("simgpu: runner already ran")
	}
	r.inject()

	r.runLanes()
	if err := r.eng.Err(); err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.finishExchange(); err != nil {
			r.tr.Abort(err)
			return nil, err
		}
	}
	return r.buildResult(), nil
}

// finishExchange all-gathers the end-of-run per-module reports so this
// replica can assemble the full result: probes and peak workers live only on
// the owning group, and the global event count is the replicated control-lane
// count plus every group's owned-lane count.
func (r *Runner) finishExchange() error {
	n := r.cl.N()
	msg := sched.FinishMsg{Group: int32(r.topo.Group), LaneFired: r.eng.FiredLanes()}
	for k := 0; k < n; k++ {
		if !r.topo.Owns(k) {
			continue
		}
		p := r.cl.Probes(k)
		msg.Reports = append(msg.Reports, sched.ModuleReport{
			Mod:         int32(k),
			Peak:        r.cl.PeakWorkers(k),
			QueueDelay:  p.QueueDelay,
			Load:        p.Load,
			Mode:        p.Mode,
			Budget:      p.Budget,
			Remain:      p.Remain,
			WaitSamples: p.WaitSamples,
		})
	}
	all, err := r.tr.Finish(msg)
	if err != nil {
		return err
	}
	r.reports = make(map[int]*sched.ModuleReport, n)
	r.fired = r.eng.FiredControl()
	for i := range all {
		r.fired += all[i].LaneFired
		for j := range all[i].Reports {
			rep := &all[i].Reports[j]
			r.reports[int(rep.Mod)] = rep
		}
	}
	if len(r.reports) != n {
		return fmt.Errorf("simgpu: finish exchange covered %d of %d modules", len(r.reports), n)
	}
	return nil
}

// peakWorkers returns module k's peak worker count, consulting the owner's
// report in a multi-group topology.
func (r *Runner) peakWorkers(k int) int {
	if r.reports != nil {
		return r.reports[k].Peak
	}
	return r.cl.PeakWorkers(k)
}

// moduleProbes returns module k's probe outputs, consulting the owner's
// report in a multi-group topology (probe series fill only on the owner).
func (r *Runner) moduleProbes(k int) sched.ModuleProbes {
	if r.reports != nil {
		rep := r.reports[k]
		return sched.ModuleProbes{
			QueueDelay:  rep.QueueDelay,
			Load:        rep.Load,
			Mode:        rep.Mode,
			Budget:      rep.Budget,
			Remain:      rep.Remain,
			WaitSamples: rep.WaitSamples,
		}
	}
	return r.cl.Probes(k)
}

// runLanes drives the per-module lane engine. Sync, scaling and failure
// events run on the executor's serial control lane (every module lane
// parked), exactly the cross-module context they need.
func (r *Runner) runLanes() {
	// The ControlFlush calls commit a tick's drops/completions, which the
	// lane engine otherwise commits when the control event ends: the drained
	// predicate right after must read the committed counts — on every
	// replica — or the groups could disagree on when the run ends.
	r.eng.Ticker(r.cfg.SyncPeriod, "sync", func(now time.Duration) bool {
		r.cl.SyncTick(now)
		r.cl.ControlFlush()
		return !r.drained(now)
	})
	if r.cfg.FixedWorkers == nil {
		r.eng.Ticker(sched.ScalePeriod, "scale", func(now time.Duration) bool {
			r.cl.ScaleTick(now)
			r.cl.ControlFlush()
			return !r.drained(now)
		})
	}
	for _, f := range r.cfg.Failures {
		f := f
		r.eng.Schedule(f.At, "failure", func(now time.Duration) {
			r.cl.Crash(f.Module, now, f.Count)
		})
	}
	r.eng.Run()
}

func (r *Runner) buildResult() *Result {
	col := metrics.NewCollector(r.cfg.Spec.SLO, r.cfg.Spec.N())
	col.Reserve(r.cfg.Trace.Duration)
	for _, req := range r.requests {
		rec := metrics.Record{
			Send:       req.Send,
			GPUTime:    req.GPU,
			DropModule: -1,
		}
		switch {
		case req.Finished:
			rec.Done = req.DoneAt
			if req.DoneAt-req.Send <= r.cfg.Spec.SLO {
				rec.Outcome = metrics.Good
			} else {
				rec.Outcome = metrics.Late
			}
		case req.Dropped:
			rec.Done = req.DropAt
			rec.Outcome = metrics.DroppedOutcome
			rec.DropModule = req.DropModule
		default:
			// Stranded in-flight at drain (should not happen; count against
			// the policy rather than hiding it).
			rec.Done = req.Send
			rec.Outcome = metrics.DroppedOutcome
		}
		col.Add(rec)
	}

	fired := r.eng.Fired()
	if r.reports != nil {
		fired = r.fired // control events once + every group's owned lanes
	}
	res := &Result{
		Collector:  col,
		Summary:    col.Summary(),
		PolicyName: r.cl.Policy().Name(),
		Workload:   r.cfg.Spec.App + "-" + r.cfg.Trace.Name,
		// A plan is never changed, and this one is the run's own.
		TargetBatches: r.plan.Batches,
		ProfiledDurs:  r.plan.Durs,
		SimEvents:     fired,
		SumQ:          r.sumQ,
		SumW:          r.sumW,
		SumD:          r.sumD,
	}
	n := r.cl.N()
	res.PeakWorkers = make([]int, n)
	for k := 0; k < n; k++ {
		res.PeakWorkers[k] = r.peakWorkers(k)
	}
	if r.cfg.Probes.QueueDelay {
		for k := 0; k < n; k++ {
			res.QueueDelay = append(res.QueueDelay, r.moduleProbes(k).QueueDelay)
		}
	}
	if r.cfg.Probes.LoadFactor {
		// Report the source module's controller (the module workload bursts
		// hit first; Fig. 13 plots a single representative module).
		src := r.moduleProbes(r.cfg.Spec.Source())
		res.LoadFactor = src.Load
		res.ModeSeries = src.Mode
		if pr, ok := r.cl.Policy().(interface {
			Priority(int) *core.PriorityController
		}); ok {
			total := 0
			for k := 0; k < n; k++ {
				if pc := pr.Priority(k); pc != nil {
					total += pc.Switches()
				}
			}
			res.PrioritySwitches = total
		}
	}
	if r.cfg.Probes.Budget {
		for k := 0; k < n; k++ {
			p := r.moduleProbes(k)
			res.Consumed = append(res.Consumed, p.Budget)
			res.Remaining = append(res.Remaining, p.Remain)
		}
	}
	if r.cfg.Probes.Decomposition {
		for k := 0; k < n; k++ {
			res.WaitSamples = append(res.WaitSamples, r.moduleProbes(k).WaitSamples)
		}
	}
	return res
}

// Requests returns the run's requests in arrival order, each holding its
// fate once Run returns: the per-request ledger a Result does not keep.
func (r *Runner) Requests() []*sched.Request { return r.requests }

// Run is the one-call entry point: build a runner from cfg and execute it.
func Run(cfg Config) (*Result, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
