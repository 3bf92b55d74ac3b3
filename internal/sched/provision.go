package sched

import (
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
			return nil, nil, err
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
