// Package core implements PARD's two contributions (§4): the proactive
// latency estimator built from bi-directional runtime information (State
// Planner + Request Broker, §4.2) and the adaptive request priority
// controller with delayed HBF/LBF transition (§4.3).
//
// Everything here is pure scheduling logic over published module state; the
// discrete-event simulator (internal/simgpu) and the wall-clock server
// (internal/server) both drive it unchanged.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"pard/internal/pipeline"
	"pard/internal/stats"
)

// ModuleState is the compact state a module's controller publishes at each
// synchronization tick (§4.1 step ② / §5.4 "state synchronization"): recent
// average queueing delay, profiled execution duration at the current target
// batch size, a sample of recent batch waits, input rate and throughput.
type ModuleState struct {
	// QueueDelay is the recent linear-weighted average queueing delay q_i.
	QueueDelay time.Duration
	// ProfiledDur is d_i at the module's current target batch size.
	ProfiledDur time.Duration
	// BatchWait holds sampled recent batch-wait observations in seconds
	// (reservoir sampled; the estimator convolves these across modules).
	BatchWait []float64
	// InputRate is the module's recent input workload T_in (req/s).
	InputRate float64
	// Throughput is the module's capacity T_m (req/s) given batch size,
	// execution duration and worker count.
	Throughput float64
	// Overloaded marks DAGOR-style overload (average queueing delay above
	// threshold); used only by the PARD-oc ablation.
	Overloaded bool
	// WCL is the module's recent worst-case latency (queueing + batch wait +
	// execution); used only by the PARD-WCL ablation.
	WCL time.Duration
}

// Board is the cross-module state view maintained by controller
// synchronization. Readers see the most recently published snapshot per
// module, which is up to one sync period stale — exactly the information
// staleness the real system has.
//
// The board owns its snapshots: each module's slot keeps its own BatchWait
// storage, which Publish copies into and reuses, so a slot stops allocating
// once it has held its module's largest sample set. A Board is for one
// goroutine at a time: every host publishes to and reads it from its
// executor's serial context only, the sync tick and the lane-group board
// exchange. Nothing reads it per request from another goroutine.
type Board struct {
	states []ModuleState
}

// NewBoard returns a board for n modules with zeroed state.
func NewBoard(n int) *Board {
	if n < 1 {
		panic(fmt.Sprintf("core: board needs >=1 modules, got %d", n))
	}
	return &Board{states: make([]ModuleState, n)}
}

// Publish copies s into module k's slot, BatchWait samples included: the
// caller keeps s.BatchWait and may change it as soon as Publish returns.
// s.BatchWait may be the slot's own samples, as Publish(k, Get(k)) passes.
func (b *Board) Publish(k int, s ModuleState) {
	slot := &b.states[k]
	s.BatchWait = append(slot.BatchWait[:0], s.BatchWait...)
	*slot = s
}

// Get returns module k's last published snapshot by value. The returned
// BatchWait slice is the slot's storage: it is read-only, and valid until
// the next Publish to slot k.
func (b *Board) Get(k int) ModuleState {
	return b.states[k]
}

// WaitMode selects how the estimator treats downstream batch wait ΣW.
type WaitMode int

// Downstream batch-wait estimation modes.
const (
	// WaitQuantile uses the λ-quantile of the Monte-Carlo-convolved
	// downstream batch-wait distribution (PARD's sweet spot w_k).
	WaitQuantile WaitMode = iota
	// WaitZero assumes ΣW = 0 (PARD-lower).
	WaitZero
	// WaitUpper assumes ΣW = Σd_i (PARD-upper).
	WaitUpper
	// WaitAnalytic evaluates the λ-quantile of the Irwin-Hall sum in closed
	// form (CLT with exact moments), assuming W_i ~ U[0, d_i]. It skips the
	// Monte-Carlo sampling and the empirical wait windows entirely — cheaper
	// per sync, but blind to non-uniform wait shapes (an extension beyond
	// the paper, ablatable as "pard-analytic").
	WaitAnalytic
)

// EstimatorConfig parameterizes the Lsub estimator; the zero value is not
// valid, use DefaultEstimatorConfig.
type EstimatorConfig struct {
	// Lambda is the quantile λ for WaitQuantile mode (default 0.1, §4.2).
	Lambda float64
	// Samples is the Monte-Carlo sample count M (paper default 10,000; the
	// simulator default trades a little estimator resolution for run time).
	Samples int
	// IncludeQueue includes downstream queueing ΣQ in Lsub.
	IncludeQueue bool
	// IncludeDur includes downstream execution ΣD in Lsub.
	IncludeDur bool
	// Wait selects the ΣW estimation mode.
	Wait WaitMode
}

// DefaultEstimatorConfig returns PARD's configuration: λ=0.1, full
// bi-directional information.
func DefaultEstimatorConfig() EstimatorConfig {
	return EstimatorConfig{
		Lambda:       0.1,
		Samples:      2000,
		IncludeQueue: true,
		IncludeDur:   true,
		Wait:         WaitQuantile,
	}
}

// Estimator computes each module's downstream latency budget estimate Lsub
// (Eq. 1/3). Estimates are recomputed from the board on Refresh — once per
// sync tick, not per request — and cached, mirroring the State Planner's
// asynchronous update thread (§5.4 overheads).
type Estimator struct {
	cfg   EstimatorConfig
	spec  *pipeline.Spec
	paths [][][]int // paths[k]: downstream paths (module id sequences) from k
	lsub  []time.Duration
	rng   *rand.Rand

	// computePath scratch, reused across paths and sync ticks: srcScratch
	// collects the per-module batch-wait sources, sumScratch holds the
	// Monte-Carlo sums, dsScratch the analytic per-module durations.
	srcScratch [][]float64
	sumScratch []float64
	dsScratch  []float64
}

// NewEstimator builds an estimator for the pipeline. The spec must be valid.
func NewEstimator(spec *pipeline.Spec, cfg EstimatorConfig, rng *rand.Rand) *Estimator {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		panic(fmt.Sprintf("core: lambda %v outside [0,1]", cfg.Lambda))
	}
	if cfg.Samples < 1 {
		panic(fmt.Sprintf("core: samples %d < 1", cfg.Samples))
	}
	n := spec.N()
	e := &Estimator{
		cfg:   cfg,
		spec:  spec,
		paths: make([][][]int, n),
		lsub:  make([]time.Duration, n),
		rng:   rng,
	}
	for k := 0; k < n; k++ {
		e.paths[k] = spec.DownstreamPaths(k)
	}
	return e
}

// Refresh recomputes every module's cached Lsub from the board. For DAG
// pipelines the estimate for a module is the maximum over its downstream
// paths (§4.2, §5.1).
func (e *Estimator) Refresh(b *Board) {
	for k := range e.lsub {
		e.lsub[k] = e.computeLsub(b, k)
	}
}

// Lsub returns module k's cached downstream latency estimate.
func (e *Estimator) Lsub(k int) time.Duration { return e.lsub[k] }

// Breakdown decomposes one downstream path's Lsub estimate into the three
// components of Eq. 1 (ΣQ, ΣD, estimated ΣW), plus the path it covers.
type Breakdown struct {
	// Path is the module ID sequence the estimate covers.
	Path []int
	// Queue is the aggregated recent queueing delay ΣQ.
	Queue time.Duration
	// Exec is the aggregated profiled execution ΣD.
	Exec time.Duration
	// Wait is the estimated aggregated batch wait (w_k under the configured
	// mode).
	Wait time.Duration
}

// Total returns the path's contribution to Lsub under the estimator config.
func (br Breakdown) Total(cfg EstimatorConfig) time.Duration {
	var total time.Duration
	if cfg.IncludeQueue {
		total += br.Queue
	}
	if cfg.IncludeDur {
		total += br.Exec
	}
	total += br.Wait
	return total
}

// computePath evaluates one downstream path's breakdown from the board. It
// reuses the estimator's scratch buffers (this runs per path per sync tick),
// so an Estimator is not safe for concurrent use — it never was: the
// Monte-Carlo rng draw order is part of the deterministic output.
func (e *Estimator) computePath(b *Board, path []int) Breakdown {
	br := Breakdown{Path: path}
	waitSrc := e.srcScratch[:0]
	for _, id := range path {
		s := b.Get(id)
		br.Queue += s.QueueDelay
		br.Exec += s.ProfiledDur
		if len(s.BatchWait) > 0 {
			waitSrc = append(waitSrc, s.BatchWait)
		}
	}
	e.srcScratch = waitSrc
	switch e.cfg.Wait {
	case WaitZero:
		// nothing
	case WaitUpper:
		br.Wait = br.Exec
	case WaitAnalytic:
		ds := e.dsScratch[:0]
		for _, id := range path {
			ds = append(ds, b.Get(id).ProfiledDur.Seconds())
		}
		e.dsScratch = ds
		w := stats.UniformSumQuantile(ds, e.cfg.Lambda)
		br.Wait = time.Duration(w * float64(time.Second))
	case WaitQuantile:
		var w float64
		w, e.sumScratch = stats.ConvolveQuantileInto(e.sumScratch, waitSrc, e.cfg.Lambda, e.cfg.Samples, e.rng)
		wd := time.Duration(w * float64(time.Second))
		if wd > br.Exec {
			wd = br.Exec // W_i never exceeds d_i per module (Fig. 3b)
		}
		br.Wait = wd
	}
	return br
}

func (e *Estimator) computeLsub(b *Board, k int) time.Duration {
	paths := e.paths[k]
	if len(paths) == 0 {
		return 0
	}
	var max time.Duration
	for _, path := range paths {
		if total := e.computePath(b, path).Total(e.cfg); total > max {
			max = total
		}
	}
	return max
}

// Explain returns the breakdown of module k's dominant downstream path
// (the one whose total defines Lsub), recomputed from the board. Useful for
// understanding *why* the Request Broker dropped a request.
func (e *Estimator) Explain(b *Board, k int) Breakdown {
	paths := e.paths[k]
	if len(paths) == 0 {
		return Breakdown{}
	}
	best := e.computePath(b, paths[0])
	for _, path := range paths[1:] {
		if br := e.computePath(b, path); br.Total(e.cfg) > best.Total(e.cfg) {
			best = br
		}
	}
	return best
}

// EntryEstimate is Eq. 1 read at module k: the predicted end-to-end latency
// of a request arriving at k right now — k's recent queueing delay plus its
// profiled execution plus the cached downstream estimate Lsub. Unlike Refresh
// this allocates nothing and costs one board read.
func (e *Estimator) EntryEstimate(b *Board, k int) time.Duration {
	s := b.Get(k)
	return s.QueueDelay + s.ProfiledDur + e.lsub[k]
}

// EstimateEndToEnd is the Request Broker's Eq. 3: the end-to-end latency of
// a request sent at ts, whose batch at module k is expected to start
// executing at te with profiled duration dk, plus the cached downstream
// estimate. te-ts covers Lpre + Q_k + W_k exactly (all determined at
// decision time t_b).
func (e *Estimator) EstimateEndToEnd(ts, te time.Duration, dk time.Duration, k int) time.Duration {
	return te - ts + dk + e.lsub[k]
}

// SplitBudgets allocates the end-to-end SLO into fixed per-module budgets
// proportional to profiled durations: SLO_k = SLO·d_k/Σd (the Clipper++ and
// PARD-split scheme). durs must hold each module's profiled duration. The
// budgets are appended to dst[:0], so a caller that passes last round's
// budgets allocates nothing.
func SplitBudgets(dst []time.Duration, slo time.Duration, durs []time.Duration) []time.Duration {
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	out := dst[:0]
	for _, d := range durs {
		if sum <= 0 {
			out = append(out, slo/time.Duration(len(durs)))
		} else {
			out = append(out, time.Duration(float64(slo)*float64(d)/float64(sum)))
		}
	}
	return out
}

// CumulativeBudgets turns per-module budgets into prefix sums: the latency a
// request may have accumulated by the time it finishes module k. They are
// appended to dst[:0], which must not share budgets' storage.
func CumulativeBudgets(dst, budgets []time.Duration) []time.Duration {
	out := dst[:0]
	var acc time.Duration
	for _, b := range budgets {
		acc += b
		out = append(out, acc)
	}
	return out
}
