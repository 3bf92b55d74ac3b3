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
// batch size, a sample of the module's batch waits, input rate and
// throughput. A field its policy does not read (policy.Reads) stays at its
// zero value.
type ModuleState struct {
	// QueueDelay is the recent linear-weighted average queueing delay q_i.
	QueueDelay time.Duration
	// ProfiledDur is d_i at the module's current target batch size.
	ProfiledDur time.Duration
	// BatchWait holds the module's last 512 batch waits in seconds (fewer
	// until it has seen that many), in no particular order. Each new wait
	// displaces the oldest, so after a load shift the sample describes the
	// new load within 512 batched requests. The estimator convolves these
	// across modules.
	BatchWait []float64
	// InputRate is the module's recent input workload T_in (req/s).
	InputRate float64
	// Throughput is the module's capacity T_m (req/s) given batch size,
	// execution duration and worker count.
	Throughput float64
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
//
// A module's downstream path is a suffix of a source-to-sink path, and the
// modules of a pipeline share those suffixes: on a chain, module k's one
// path is module k+1 followed by module k+1's path. NewEstimator therefore
// interns each distinct suffix once, as a node (its first module, the node
// of the rest), and Refresh builds every node from its successor's: ΣQ and
// ΣD by one addition each, the Monte-Carlo batch-wait sums by copying the
// successor's and adding one draw per sample from the node's module. Each
// node's λ-quantile is selected once, so a tick costs one convolution per
// node (an N-module chain has N−1) where convolving every path from scratch
// cost one per module on it (N(N−1)/2).
type Estimator struct {
	cfg   EstimatorConfig
	nodes []suffix // sink-first: every node's successor comes before it
	// Module k's downstream paths start at the nodes
	// heads[headAt[k]:headAt[k+1]], in pipeline.Spec.DownstreamPaths order
	// (the Explain tie-break).
	heads, headAt []int
	lsub          []time.Duration
	rng           *rand.Rand

	// sums holds Samples Monte-Carlo sums per node, node i's at
	// [i·Samples, (i+1)·Samples), in WaitQuantile mode; ds is WaitAnalytic's
	// scratch for a path's durations. Both are allocated once, up front.
	sums []float64
	ds   []float64
}

// suffix is one interned downstream path: module mod, then the path of node
// next (-1 when mod is the sink). queue, exec and wait are the path's
// breakdown as of the last Refresh.
type suffix struct {
	mod, next         int
	queue, exec, wait time.Duration
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
		cfg:    cfg,
		headAt: make([]int, n+1),
		lsub:   make([]time.Duration, n),
		rng:    rng,
	}
	// A module with predecessors starts one node per path from it to the
	// sink, made together once its successors' are: the run
	// nodes[first[k]:first[k]+paths[k]]. A module's downstream paths are its
	// successors' runs.
	scratch := make([]int, 2*n)
	paths, first := scratch[:n], scratch[n:]
	nodes, heads := 0, 0
	for k, m := range spec.Modules {
		countPaths(spec, k, paths)
		if len(m.Pres) > 0 {
			nodes += paths[k]
		}
		if len(m.Subs) > 0 {
			heads += paths[k]
		}
		first[k] = -1
	}
	e.nodes = make([]suffix, 0, nodes)
	for k := range spec.Modules {
		e.makeNodes(spec, k, paths, first)
	}
	e.heads = make([]int, 0, heads)
	for k, m := range spec.Modules {
		e.headAt[k] = len(e.heads)
		for _, sub := range m.Subs {
			for j := range paths[sub] {
				e.heads = append(e.heads, first[sub]+j)
			}
		}
	}
	e.headAt[n] = len(e.heads)
	switch cfg.Wait {
	case WaitQuantile:
		e.sums = make([]float64, len(e.nodes)*cfg.Samples)
	case WaitAnalytic:
		e.ds = make([]float64, 0, len(e.nodes)) // no path is longer
	}
	return e
}

// countPaths sets paths[k] to the number of paths from module k to the
// sink, and returns it; a count already set (> 0) is reused.
func countPaths(spec *pipeline.Spec, k int, paths []int) int {
	if paths[k] == 0 {
		subs := spec.Modules[k].Subs
		if len(subs) == 0 {
			paths[k] = 1
		}
		for _, sub := range subs {
			paths[k] += countPaths(spec, sub, paths)
		}
	}
	return paths[k]
}

// makeNodes makes module k's run of nodes, after its successors', unless
// first[k] says it is made.
func (e *Estimator) makeNodes(spec *pipeline.Spec, k int, paths, first []int) {
	if first[k] >= 0 {
		return
	}
	m := spec.Modules[k]
	for _, sub := range m.Subs {
		e.makeNodes(spec, sub, paths, first)
	}
	first[k] = len(e.nodes)
	switch {
	case len(m.Pres) == 0:
		// No path starts at a module without predecessors.
	case len(m.Subs) == 0:
		e.nodes = append(e.nodes, suffix{mod: k, next: -1})
	default:
		for _, sub := range m.Subs {
			for j := range paths[sub] {
				e.nodes = append(e.nodes, suffix{mod: k, next: first[sub] + j})
			}
		}
	}
}

// headsOf returns the nodes that start module k's downstream paths.
func (e *Estimator) headsOf(k int) []int { return e.heads[e.headAt[k]:e.headAt[k+1]] }

// Refresh recomputes every module's cached Lsub from the board. For DAG
// pipelines the estimate for a module is the maximum over its downstream
// paths (§4.2, §5.1). It allocates nothing. The Monte-Carlo draws are part of
// the deterministic output, so an Estimator is for one goroutine at a time.
func (e *Estimator) Refresh(b *Board) {
	m := e.cfg.Samples
	for i := range e.nodes {
		nd := &e.nodes[i]
		s := b.Get(nd.mod)
		nd.queue, nd.exec = s.QueueDelay, s.ProfiledDur
		if nd.next >= 0 {
			nx := &e.nodes[nd.next]
			nd.queue += nx.queue
			nd.exec += nx.exec
		}
		switch e.cfg.Wait {
		case WaitZero:
			nd.wait = 0
		case WaitUpper:
			nd.wait = nd.exec
		case WaitAnalytic:
			ds := e.ds[:0]
			for j := i; j >= 0; j = e.nodes[j].next {
				ds = append(ds, b.Get(e.nodes[j].mod).ProfiledDur.Seconds())
			}
			e.ds = ds
			nd.wait = time.Duration(stats.UniformSumQuantile(ds, e.cfg.Lambda) * float64(time.Second))
		case WaitQuantile:
			sums := e.sums[i*m : (i+1)*m]
			if nd.next >= 0 {
				// The successor's sums are in the order its selection left
				// them; the draws added here are independent of that order.
				copy(sums, e.sums[nd.next*m:(nd.next+1)*m])
			} else {
				clear(sums)
			}
			stats.AddDraws(sums, s.BatchWait, e.rng)
			w := stats.SelectQuantile(sums, e.cfg.Lambda)
			// W_i never exceeds d_i per module (Fig. 3b).
			nd.wait = min(time.Duration(w*float64(time.Second)), nd.exec)
		}
	}
	for k := range e.lsub {
		var l time.Duration
		for _, h := range e.headsOf(k) {
			l = max(l, e.nodes[h].breakdown().Total(e.cfg))
		}
		e.lsub[k] = l
	}
}

// Lsub returns module k's cached downstream latency estimate.
func (e *Estimator) Lsub(k int) time.Duration { return e.lsub[k] }

// Config returns the estimator's configuration.
func (e *Estimator) Config() EstimatorConfig { return e.cfg }

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

// breakdown is the node's path breakdown as of the last Refresh, without
// the path.
func (nd *suffix) breakdown() Breakdown {
	return Breakdown{Queue: nd.queue, Exec: nd.exec, Wait: nd.wait}
}

// Explain returns the breakdown of module k's dominant downstream path (the
// first whose total defines Lsub) as of the last Refresh. It reads the
// cached per-node estimates and draws nothing, so it leaves the estimator's
// random stream where it was. Useful for understanding *why* the Request
// Broker dropped a request.
func (e *Estimator) Explain(k int) Breakdown {
	heads := e.headsOf(k)
	if len(heads) == 0 {
		return Breakdown{}
	}
	best := heads[0]
	for _, h := range heads[1:] {
		if e.nodes[h].breakdown().Total(e.cfg) > e.nodes[best].breakdown().Total(e.cfg) {
			best = h
		}
	}
	br := e.nodes[best].breakdown()
	for j := best; j >= 0; j = e.nodes[j].next {
		br.Path = append(br.Path, e.nodes[j].mod)
	}
	return br
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
