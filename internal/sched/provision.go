package sched

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// The scaling engine (Fig. 4) that a simulation runs unless its worker counts
// are pinned. Every ScalePeriod, a module's demand is its recent input rate
// times scaleHeadroom over one worker's throughput, clamped to
// [minWorkers, maxWorkers]; a worker added to meet it serves only after
// coldStart (§2: "resources cannot scale up instantly due to model cold
// starts"). The initial pool is sized by the same rule (ProvisionWorkers).
const (
	ScalePeriod   = 3 * time.Second
	coldStart     = 10 * time.Second
	scaleHeadroom = 1.2
	minWorkers    = 1
	maxWorkers    = 4
)

// ProbeConfig enables optional high-volume recordings.
type ProbeConfig struct {
	// QueueDelay records each module's average queueing delay per sync tick
	// (Fig. 12c).
	QueueDelay bool
	// LoadFactor records module 0's load factor μ and priority mode per sync
	// tick (Fig. 13).
	LoadFactor bool
	// Budget records per-module consumed latency budget of completed
	// requests over time (Fig. 12a) and remaining budgets at module arrival
	// (Fig. 12d).
	Budget bool
	// Decomposition records per-request ΣQ/ΣW/ΣD samples (Fig. 12b) and
	// per-module batch-wait samples (Fig. 6).
	Decomposition bool
	// SampleEvery subsamples per-request probes (1 = every request).
	SampleEvery int
}

// Every returns the per-request probes' subsampling period: SampleEvery,
// and 1 (every request) when SampleEvery is not positive.
func (p ProbeConfig) Every() int { return max(p.SampleEvery, 1) }

// Failure describes one injected machine failure: at time At, Count workers
// of module Module crash. Requests queued or executing on a crashed worker
// at that moment are lost (recorded as drops at that module); replacement
// capacity arrives only through the scaling engine's cold-start path.
type Failure struct {
	At     time.Duration
	Module int
	Count  int
}

// BatchFrac is the SLO share one pass of pure execution may take when target
// batch sizes are chosen: module k's execution budget is
// SLO·BatchFrac·d₁(k)/Σd₁, the paper-like regime where one execution pass
// consumes half the SLO.
const BatchFrac = 0.5

// Plan is what offline profiling fixes for one deployment before anything
// runs (Fig. 4): the validated pipeline, its model profiles, each module's
// target batch and that batch's profiled duration — the inputs of the §4.1
// State Planner and the §4.2 estimator — and each module's initial worker
// count. NewPlan derives it once; a cluster, and every host above one, reads
// it and derives nothing again. A plan is never changed once built, so its
// copies share its slices.
type Plan struct {
	Spec    *pipeline.Spec
	Lib     *profile.Library
	Batches []int
	Durs    []time.Duration
	Workers []int
}

// NewPlan validates spec and plans it on lib, nil selecting the shared
// profile.Default(). The initial workers are workers when it is non-nil,
// checked by CheckWorkers, and otherwise the counts ProvisionWorkers sizes
// for rate requests a second. An error that is not the spec's names the input
// at fault: "library: module k: …" or "workers: …".
func NewPlan(spec *pipeline.Spec, lib *profile.Library, workers []int, rate float64) (Plan, error) {
	if spec == nil {
		return Plan{}, fmt.Errorf("plan needs a pipeline spec")
	}
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	p := Plan{Spec: spec, Lib: cmp.Or(lib, profile.Default())}
	var err error
	if p.Batches, p.Durs, err = TargetBatches(spec, p.Lib, BatchFrac); err != nil {
		return Plan{}, fmt.Errorf("library: %w", err)
	}
	if workers == nil {
		workers, err = ProvisionWorkers(spec, p.Lib, p.Batches, rate)
	} else if err = CheckWorkers(workers, spec.N()); err != nil {
		err = fmt.Errorf("workers: %w", err)
	}
	if err != nil {
		return Plan{}, err
	}
	p.Workers = workers
	return p, nil
}

// PoolLimit bounds a module's worker count. The paper's whole cluster has 64
// GPUs; the bound is there so that a malformed count, such as one in a job
// off the wire, cannot size a pool's slabs past memory.
const PoolLimit = 1 << 12

// CheckWorkers requires one worker count per module of an n-module pipeline,
// each in [1, PoolLimit]: a module with no worker would drop every request.
func CheckWorkers(counts []int, n int) error {
	if len(counts) != n {
		return fmt.Errorf("%d worker counts for %d modules", len(counts), n)
	}
	for k, w := range counts {
		if w < 1 || w > PoolLimit {
			return fmt.Errorf("module %d: %d workers outside [1, %d]", k, w, PoolLimit)
		}
	}
	return nil
}

// TargetBatches picks each module's target batch size: the largest batch
// whose profiled duration fits the module's share of the execution budget
// SLO·frac, distributed proportionally to single-request durations. It
// returns the batch sizes and their profiled durations.
func TargetBatches(spec *pipeline.Spec, lib *profile.Library, frac float64) ([]int, []time.Duration, error) {
	if frac <= 0 || frac > 1 {
		return nil, nil, fmt.Errorf("sched: batch fraction %v outside (0,1]", frac)
	}
	n := spec.N()
	models := make([]profile.Model, n)
	var d1Sum time.Duration
	for k := 0; k < n; k++ {
		m, err := lib.Get(spec.Modules[k].Name)
		if err != nil {
			return nil, nil, fmt.Errorf("module %d: %w", k, err)
		}
		models[k] = m
		d1Sum += m.Duration(1)
	}
	batches := make([]int, n)
	durs := make([]time.Duration, n)
	budget := time.Duration(float64(spec.SLO) * frac)
	for k := 0; k < n; k++ {
		share := time.Duration(float64(budget) * float64(models[k].Duration(1)) / float64(d1Sum))
		b := models[k].BestBatch(share)
		if b < 1 {
			b = 1
		}
		batches[k] = b
		durs[k] = models[k].Duration(b)
	}
	return batches, durs, nil
}

// ProvisionWorkers computes per-module worker counts able to sustain the
// given request rate with the target batch sizes, under the scaling engine's
// headroom and clamped to its [minWorkers, maxWorkers].
func ProvisionWorkers(spec *pipeline.Spec, lib *profile.Library, batches []int, rate float64) ([]int, error) {
	n := spec.N()
	out := make([]int, n)
	for k := 0; k < n; k++ {
		m, err := lib.Get(spec.Modules[k].Name)
		if err != nil {
			return nil, err
		}
		tp := m.Throughput(batches[k])
		out[k] = min(max(int(math.Ceil(rate*scaleHeadroom/tp)), minWorkers), maxWorkers)
	}
	return out, nil
}
