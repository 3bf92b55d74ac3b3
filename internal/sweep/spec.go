package sweep

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// RunOpts tweaks a single simulation beyond app/trace/policy. Every field
// participates in the cache key, so two specs differing in any option are
// distinct grid points with distinct derived seeds.
type RunOpts struct {
	Probes      simgpu.ProbeConfig
	Lambda      float64
	SLOOverride time.Duration
	WindowSize  time.Duration
	// FixedWorkers pins per-module worker counts and disables scaling.
	FixedWorkers []int
	// SteadyRate, when > 0, replaces the Kind trace with a steady trace at
	// this rate (req/s).
	SteadyRate float64
	// SteadyDur overrides the steady trace length (default: half the
	// engine's trace duration, the stress-test regime).
	SteadyDur time.Duration
	// Failures injects worker crashes into the run.
	Failures []simgpu.Failure
}

// Spec identifies one grid point of a sweep: which pipeline, workload and
// policy to simulate, plus per-run options.
type Spec struct {
	// App names a built-in pipeline (tm, lv, gm, da, da-dyn).
	App string
	// Pipeline, when set, overrides the App lookup with an explicit spec;
	// its App name still identifies it in the cache key.
	Pipeline *pipeline.Spec
	Kind     trace.Kind
	Policy   string
	Opts     RunOpts
}

// appName returns the name identifying the pipeline in cache keys.
func (s Spec) appName() string {
	if s.Pipeline != nil {
		return s.Pipeline.App
	}
	return s.App
}

// Key returns the spec's stable cache key. It is also the input to per-run
// seed derivation, so it must (and does) encode every field that affects
// the simulation.
func (s Spec) Key() string {
	o := s.Opts
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|p=%+v|l=%v|slo=%v|w=%v|r=%v|rd=%v|fw=%v|fail=%v",
		s.appName(), s.Kind, s.Policy, o.Probes, o.Lambda, o.SLOOverride,
		o.WindowSize, o.SteadyRate, o.SteadyDur, o.FixedWorkers, o.Failures)
	// A frozen literal from when there were two engines. It cannot go: the
	// key seeds its run (Engine.Do derives the seed from it), so changing
	// the grammar would re-seed every sweep and move every golden. Entries
	// that a removed engine, a removed shard option (|sh=) or the removed
	// in-process lane-group option (|topo) wrote carry another marker and
	// never match.
	b.WriteString("|eng=lane")
	if s.Pipeline != nil {
		// An explicit pipeline is keyed by its full structure: two
		// overrides sharing an App name must not collide in the cache.
		fmt.Fprintf(&b, "|spec=slo=%v/m=%+v", s.Pipeline.SLO, s.Pipeline.Modules)
	}
	return b.String()
}

// pipelineSpec resolves the pipeline for the spec.
func (s Spec) pipelineSpec() (*pipeline.Spec, error) {
	if s.Pipeline != nil {
		return s.Pipeline, nil
	}
	if sp, ok := pipeline.App(s.App); ok {
		return sp, nil
	}
	switch s.App {
	case "da-dyn":
		return pipeline.DADynamic(0.5), nil
	}
	return nil, fmt.Errorf("sweep: unknown app %q", s.App)
}

// Trace returns (and caches) the synthesized trace for a workload kind at
// the engine's trace duration. The trace seed is derived from the base
// seed plus the trace's own key, so each workload kind gets an independent
// arrival process and regeneration is order-independent.
func (e *Engine) Trace(kind trace.Kind) (*trace.Trace, error) {
	key := fmt.Sprintf("trace|%s|%v", kind, e.cfg.TraceDuration)
	v, err := e.Do(key, func(seed int64) (any, error) {
		return trace.Generate(trace.Config{
			Kind:     kind,
			Duration: e.cfg.TraceDuration,
			Seed:     seed,
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// steadyTrace returns (and caches) a steady trace at the given rate.
func (e *Engine) steadyTrace(rate float64, dur time.Duration) (*trace.Trace, error) {
	if dur <= 0 {
		dur = e.cfg.TraceDuration / 2
	}
	key := fmt.Sprintf("trace|steady|r=%v|%v", rate, dur)
	v, err := e.Do(key, func(seed int64) (any, error) {
		return trace.Generate(trace.Config{
			Kind:     trace.Steady,
			Duration: dur,
			PeakRate: rate,
			Seed:     seed,
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// Run executes (or retrieves from cache) one simulation. Concurrent calls
// with equal specs share a single execution.
func (e *Engine) Run(s Spec) (*simgpu.Result, error) {
	v, err := e.Do("run|"+s.Key(), func(seed int64) (any, error) {
		return e.exec(s, seed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*simgpu.Result), nil
}

// exec materializes and runs one spec with its derived seed.
func (e *Engine) exec(s Spec, seed int64) (*simgpu.Result, error) {
	spec, err := s.pipelineSpec()
	if err != nil {
		return nil, err
	}
	if s.Opts.SLOOverride > 0 {
		cp := *spec
		cp.SLO = s.Opts.SLOOverride
		spec = &cp
	}
	var tr *trace.Trace
	if s.Opts.SteadyRate > 0 {
		tr, err = e.steadyTrace(s.Opts.SteadyRate, s.Opts.SteadyDur)
	} else {
		tr, err = e.Trace(s.Kind)
	}
	if err != nil {
		return nil, err
	}
	return simgpu.Run(simgpu.Config{
		Spec:           spec,
		Lib:            e.cfg.Library,
		PolicyName:     s.Policy,
		Trace:          tr,
		Seed:           seed,
		Probes:         s.Opts.Probes,
		Lambda:         s.Opts.Lambda,
		PriorityWindow: s.Opts.WindowSize,
		FixedWorkers:   s.Opts.FixedWorkers,
		Failures:       s.Opts.Failures,
	})
}

// Distributor executes a grid of specs somewhere other than the local
// worker pool — e.g. internal/dist's coordinator fanning units out to
// remote workers — returning results in input order under the same
// determinism contract as Engine.Sweep. Implementations are expected to
// merge results through the owning engine's cache (Lookup/Install) so warm
// entries are never recomputed anywhere.
type Distributor interface {
	Sweep(ctx context.Context, specs []Spec) ([]*simgpu.Result, error)
}

// SetDistributor routes subsequent Sweep calls through d (nil restores the
// in-process pool). Single Run/Trace calls always execute locally; because
// seeds derive from (base seed, key) alone, local and distributed
// executions of the same spec are byte-identical and share one cache.
func (e *Engine) SetDistributor(d Distributor) {
	e.mu.Lock()
	e.distributor = d
	e.mu.Unlock()
}

// Sweep executes a grid of specs concurrently (bounded by the engine's
// worker count, or routed through the configured Distributor) and returns
// the results in input order. Determinism: each run's seed comes from its
// spec key, so the grid's results are identical for any worker count and
// any placement. The first failure cancels jobs that have not started.
func (e *Engine) Sweep(specs []Spec) ([]*simgpu.Result, error) {
	return e.SweepCtx(context.Background(), specs)
}

// SweepCtx is Sweep with a caller-supplied context: canceling it stops
// dispatching new runs promptly (in-flight simulations still finish).
func (e *Engine) SweepCtx(ctx context.Context, specs []Spec) ([]*simgpu.Result, error) {
	e.mu.Lock()
	d := e.distributor
	e.mu.Unlock()
	if d != nil {
		return d.Sweep(ctx, specs)
	}
	jobs := make([]Job[*simgpu.Result], len(specs))
	for i, s := range specs {
		s := s
		jobs[i] = Job[*simgpu.Result]{
			Key: "run|" + s.Key(),
			Run: func(seed int64) (*simgpu.Result, error) { return e.exec(s, seed) },
		}
	}
	return AllCtx(ctx, e, jobs)
}
