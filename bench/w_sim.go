package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/rag"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// setUp builds a workload's inputs (traces, servers, listeners, one warm-up
// op) several times, tears down all but the last, and records the median as
// setup_s. The traced pass sets up once: it owes no setup_s.
func setUp[T any](c *runCtx, build func() (T, func(), error)) (T, func(), error) {
	reps := c.size.setupReps
	if c.traced() {
		reps = 1
	}
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		v, teardown, err := build()
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			if !c.traced() {
				c.res.set("setup_s", median(times), len(times))
			}
			return v, teardown, nil
		}
		teardown()
	}
}

// timedOps repeats op until the budget is spent, at least minOps times, and
// returns each op's wall time in ms.
func timedOps(budget time.Duration, minOps int, op func(i int) error) ([]float64, error) {
	var walls []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		start := time.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		walls = append(walls, ms(time.Since(start)))
	}
	return walls, nil
}

// opCosts is what the end-to-end pass of an op-shaped workload measures.
type opCosts struct {
	// walls is per op, in ms at the reference machine speed: what the clock
	// read, over the yardstick's mean of the samples taken just before and
	// just after the op.
	walls  []float64
	allocs float64 // over all ops
}

// measureOps repeats op until the run's measuring time is spent, at least
// minOps times. Around each op it reads the wall clock and the CPU time the
// process was charged (a getrusage call, microseconds against ops of hundreds
// of milliseconds); between ops it takes a sample of the yardstick, which
// allocates nothing; once around the whole loop it reads the allocation count.
func (c *runCtx) measureOps(op func(i int) error) (opCosts, error) {
	var costs opCosts
	y, err := machine()
	if err != nil {
		return costs, err
	}
	var raw, cpus []float64
	before := readHostCost()
	deadline := time.Now().Add(c.budget(1))
	slow := []float64{y.sample()}
	for i := 0; i < c.size.minOps || time.Now().Before(deadline); i++ {
		cpu, start := cpuTime(), time.Now()
		if err := op(i); err != nil {
			return costs, err
		}
		wall := ms(time.Since(start))
		cpus = append(cpus, ms(cpuTime()-cpu))
		slow = append(slow, y.sample())
		raw = append(raw, wall)
		costs.walls = append(costs.walls, wall/((slow[i]+slow[i+1])/2))
	}
	costs.allocs, _ = before.since()
	c.res.info("op_wall_ms_unscaled", median(raw))
	c.res.info("cpu_ms_per_op", median(cpus))
	c.res.info("machine_slowness", median(slow))
	return costs, nil
}

// alternate runs the untraced and the traced form of one op in turn, so that
// drift in the machine's speed falls on both alike, until the budget is spent
// and at least minPairs pairs ran. It returns each side's wall times in ms.
func alternate(budget time.Duration, minPairs int, plain, traced func(i int) error) (base, withSpans []float64, err error) {
	_, err = timedOps(budget, 2*minPairs, func(i int) error {
		side, walls := plain, &base
		if i%2 == 1 {
			side, walls = traced, &withSpans
		}
		start := time.Now()
		err := side(i / 2)
		*walls = append(*walls, ms(time.Since(start)))
		return err
	})
	return base, withSpans, err
}

// setOpCosts records the host-cost metrics every op-shaped workload derives
// the same way, for an op that serves the given number of requests.
func (c *runCtx) setOpCosts(costs opCosts, requests int) {
	n := len(costs.walls)
	c.res.set("req_per_host_s", float64(requests)/(median(costs.walls)/1000), n)
	c.res.set("allocs_per_op", costs.allocs/float64(n), n)
}

// simTotals accumulates the simulated statistics of the runs in one op.
type simTotals struct {
	runs               int
	total, good, drops int
	goodput            float64 // Σ per-run goodput, virtual req/s
	gpuTotal, gpuWaste time.Duration
	p50s, tails        []float64 // per-run latency quantiles, virtual ms
}

// simQuantiles are the latency quantiles the sim workloads report: the median
// and the tail, p99, which leaves at least ten completed requests beyond it
// even on the shortest run (1 200 requests on dist-gob-2group).
var simQuantiles = []float64{0.5, 0.99}

// add takes one run's summary and its latency at simQuantiles.
func (t *simTotals) add(s metrics.Summary, p50, tail time.Duration) {
	t.runs++
	t.total += s.Total
	t.good += s.Good
	t.drops += s.Dropped
	t.goodput += s.Goodput
	t.gpuTotal += s.GPUTotal
	t.gpuWaste += s.GPUWasted
	t.p50s = append(t.p50s, ms(p50))
	t.tails = append(t.tails, ms(tail))
}

// addResult is add for a whole simulation result.
func (t *simTotals) addResult(r *simgpu.Result) error {
	qs := r.Collector.LatencyQuantiles(simQuantiles...)
	if qs == nil {
		return errors.New("the simulation completed no request")
	}
	t.add(r.Summary, qs[0], qs[1])
	return nil
}

// setSimMetrics records what the simulated system served in one op, on the
// virtual clock. Counts are summed and goodput is averaged over the op's
// runs; the latency quantiles are the median over the runs, because on the
// grid the naive policy's p99 (1 to 1.8 s against SLOs of 400 to 600 ms)
// swings by half with the seed's bursts and would speak for all sixteen.
func (c *runCtx) setSimMetrics(t simTotals) {
	c.res.set("latency_p50_ms", median(t.p50s), t.total)
	c.res.set("latency_tail_ms", median(t.tails), t.total)
	c.res.set("goodput_rps", t.goodput/float64(t.runs), t.runs)
	c.res.set("good_share", float64(t.good)/float64(t.total), t.total)
	c.res.set("gpu_useful_share", 1-float64(t.gpuWaste)/float64(t.gpuTotal), t.total)
}

// ---- sim-steady-dense ------------------------------------------------------

// denseConfig is the BenchmarkShardedDASequential configuration with the
// trace and every seed drawn from the benchmark seed.
func denseConfig(seed int64) (simgpu.Config, error) {
	tr, err := trace.Generate(trace.Config{
		Kind: trace.Steady, Duration: 20 * time.Second, PeakRate: 3500, Seed: seed,
	})
	if err != nil {
		return simgpu.Config{}, err
	}
	return simgpu.Config{
		Spec:         pipeline.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         seed,
		SyncPeriod:   time.Second,
		NetDelay:     5 * time.Millisecond,
		FixedWorkers: []int{40, 40, 40, 40, 40},
		Shards:       1,
	}, nil
}

// simDigest is what two runs of one configuration must agree on exactly.
type simDigest struct {
	Summary metrics.Summary
	Events  uint64
}

func digestOf(r *simgpu.Result) simDigest { return simDigest{r.Summary, r.SimEvents} }

// checkSim compares one op's outcome with the first op's and with the trace.
func (c *runCtx) checkSim(what string, got, want simDigest, traceLen int) bool {
	ok := true
	if !reflect.DeepEqual(got, want) {
		c.res.violate("%s: result differs from op 1: %+v vs %+v", what, got, want)
		ok = false
	}
	if got.Summary.Total != traceLen {
		c.res.violate("%s: %d requests accounted for, trace has %d", what, got.Summary.Total, traceLen)
		ok = false
	}
	return ok
}

func runDense(c *runCtx) error {
	type inputs struct {
		cfg    simgpu.Config
		want   simDigest
		served simTotals
	}
	in, _, err := setUp(c, func() (inputs, func(), error) {
		cfg, err := denseConfig(c.seed)
		if err != nil {
			return inputs{}, nil, err
		}
		warm, err := simgpu.Run(cfg)
		if err != nil {
			return inputs{}, nil, err
		}
		in := inputs{cfg: cfg, want: digestOf(warm)}
		return in, func() {}, in.served.addResult(warm)
	})
	if err != nil {
		return err
	}
	traceLen := in.cfg.Trace.Len()
	op := func(cfg simgpu.Config, what string) func(int) error {
		return func(int) error {
			res, err := simgpu.Run(cfg)
			if err != nil {
				return err
			}
			c.res.Attempted++
			if !c.checkSim(what, digestOf(res), in.want, traceLen) {
				c.res.Failed++
			}
			return nil
		}
	}

	if !c.traced() {
		costs, err := c.measureOps(op(in.cfg, "op"))
		if err != nil {
			return err
		}
		c.setOpCosts(costs, traceLen)
		c.setSimMetrics(in.served)
		return nil
	}

	// Traced pass: the op with a span around each call into simgpu, in turn
	// with the same op untraced for the overhead figure; then on two shards.
	var news, runs []float64
	base, tracedWalls, err := alternate(c.budget(0.5), c.size.pairs(), op(in.cfg, "baseline op"), func(int) error {
		id, root := c.tr.newOp(), c.tr.newID()
		start := time.Now()
		var r *simgpu.Runner
		var res *simgpu.Result
		var err error
		news = append(news, ms(c.tr.timed(id, root, "simgpu", "simgpu.New", func() { r, err = simgpu.New(in.cfg) })))
		if err != nil {
			return err
		}
		runs = append(runs, ms(c.tr.timed(id, root, "simgpu", "Runner.Run", func() { res, err = r.Run() })))
		if err != nil {
			return err
		}
		c.tr.record(root, id, 0, "bench", "op", start, time.Now())
		c.res.Attempted++
		if !c.checkSim("traced op", digestOf(res), in.want, traceLen) {
			c.res.Failed++
		}
		return nil
	})
	if err != nil {
		return err
	}
	sharded := in.cfg
	sharded.Shards = 2
	shardWalls, err := timedOps(c.budget(0.25), c.size.pairs(), op(sharded, "2-shard op"))
	if err != nil {
		return err
	}

	r := c.res
	r.set("simgpu.new_ms", median(news), len(news))
	r.set("simgpu.run_ms", median(runs), len(runs))
	r.set("simgpu.events_per_op", float64(in.want.Events), len(runs))
	r.set("simgpu.events_per_s", float64(in.want.Events)/(median(runs)/1000), len(runs))
	r.set("sched.shards2_run_ms", median(shardWalls), len(shardWalls))
	r.set("sched.shards2_speedup", median(base)/median(shardWalls), len(shardWalls))
	s := in.want.Summary
	r.set("policy.drop_share", float64(s.Dropped)/float64(s.Total), s.Total)
	c.setTraceOverhead(base, tracedWalls)
	c.setLayerSelf()
	return runProbes(c)
}

// setTraceOverhead records how much slower the traced ops ran than the same
// ops untraced, in the same process.
func (c *runCtx) setTraceOverhead(base, traced []float64) {
	pct := 100 * (median(traced)/median(base) - 1)
	c.res.set("bench.trace_overhead_pct", pct, len(traced))
	if pct > 5 && strings.HasPrefix(c.res.Workload, "sim-") {
		c.res.warn("tracing overhead %.1f%% exceeds 5%%: the layer rows overstate", pct)
	}
}

// setLayerSelf records each layer's self time per op from the spans, for the
// layers the metric table carries a self-time row for.
func (c *runCtx) setLayerSelf() {
	n := int(c.tr.nextOp.Load())
	self := c.tr.layerSelfMedians()
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.Name, ".self_ms"); ok {
			if v, ok := self[layer]; ok {
				c.res.set(d.Name, v, n)
			}
		}
	}
}

// ---- sim-burst-grid --------------------------------------------------------

var (
	gridApps     = []string{"tm", "lv", "gm", "da"}
	gridPolicies = []string{"pard", "nexus", "clipper++", "naive"}
)

const gridTraceDuration = 60 * time.Second

func gridSpecs() []sweep.Spec {
	var specs []sweep.Spec
	for _, app := range gridApps {
		for _, pol := range gridPolicies {
			specs = append(specs, sweep.Spec{App: app, Kind: trace.Tweet, Policy: pol})
		}
	}
	return specs
}

// finalized is what every sweep consumer derives from one run.
type finalized struct {
	Summary   metrics.Summary
	MinGood   float64
	MaxDrop   float64
	Quantiles []time.Duration
}

// gridDigest is what two grid ops on one seed must agree on exactly.
type gridDigest struct {
	TraceLen int
	Runs     []finalized
	RAG      []rag.Result
}

// gridOpts selects the variant of the grid op: the sweep's worker count, an
// optional disk cache, and the tracer of the traced pass.
type gridOpts struct {
	workers  int
	cacheDir string
	tr       *tracer
}

// gridTimes is where one traced grid op spent its time, as seen from outside.
type gridTimes struct {
	sweep, rag   time.Duration
	runElapsed   []float64 // ms per executed simulation
	traceElapsed time.Duration
	events       uint64
}

// gridOp is one op of sim-burst-grid: the 16-run grid on a fresh engine, the
// finalization every consumer performs, then the three RAG policies.
func gridOp(seed int64, o gridOpts) (gridDigest, gridTimes, error) {
	var times gridTimes
	id, root := o.tr.newOp(), o.tr.newID()
	sweepID := o.tr.newID()
	start := time.Now()

	// A trace is synthesized inside the first run that needs it, and its
	// progress arrives before that run's: hold trace spans until the run
	// that encloses them is known.
	type pending struct {
		key        string
		start, end time.Time
	}
	var held []pending
	eng := sweep.New(sweep.Config{
		Workers: o.workers, BaseSeed: seed, TraceDuration: gridTraceDuration, CacheDir: o.cacheDir,
		OnProgress: func(p sweep.Progress) {
			end := time.Now()
			begin := end.Add(-p.Elapsed)
			if strings.HasPrefix(p.Key, "trace|") {
				times.traceElapsed += p.Elapsed
				held = append(held, pending{p.Key, begin, end})
				return
			}
			times.runElapsed = append(times.runElapsed, ms(p.Elapsed))
			runID := o.tr.add(id, sweepID, "simgpu", p.Key, begin, end)
			for _, h := range held {
				parent := sweepID
				if !h.start.Before(begin) {
					parent = runID
				}
				o.tr.add(id, parent, "trace", h.key, h.start, h.end)
			}
			held = held[:0]
		},
	})
	if err := eng.DiskError(); err != nil {
		return gridDigest{}, times, err
	}
	sweepStart := time.Now()
	results, err := eng.Sweep(gridSpecs())
	if err != nil {
		return gridDigest{}, times, err
	}
	sweepEnd := time.Now()
	times.sweep = sweepEnd.Sub(sweepStart)
	o.tr.record(sweepID, id, root, "sweep", "Engine.Sweep", sweepStart, sweepEnd)

	// Every run read the engine's one tweet trace; this is a cache hit.
	arrivals, err := eng.Trace(trace.Tweet)
	if err != nil {
		return gridDigest{}, times, err
	}
	d := gridDigest{TraceLen: arrivals.Len()}
	o.tr.timed(id, root, "metrics", "finalize", func() {
		for _, res := range results {
			col := res.Collector
			d.Runs = append(d.Runs, finalized{
				Summary:   col.Summary(),
				MinGood:   col.MinNormalizedGoodput(10 * time.Second),
				MaxDrop:   col.MaxDropRate(10 * time.Second),
				Quantiles: col.LatencyQuantiles(0.5, 0.9, 0.99),
			})
			times.events += res.SimEvents
		}
	})
	times.rag = o.tr.timed(id, root, "rag", "rag.Run x3", func() {
		for _, p := range rag.Policies() {
			cfg := rag.DefaultConfig(p)
			cfg.Seed = seed
			var res *rag.Result
			if res, err = rag.Run(cfg); err != nil {
				return
			}
			// Per-stage latency samples are the bulk of a RAG result and
			// play no part in the comparison.
			clear(res.Latencies[:])
			d.RAG = append(d.RAG, *res)
		}
	})
	if err != nil {
		return gridDigest{}, times, err
	}
	o.tr.record(root, id, 0, "bench", "op", start, time.Now())
	return d, times, nil
}

// checkGrid compares one grid op with the warm-up op.
func (c *runCtx) checkGrid(what string, got, want gridDigest) bool {
	if !reflect.DeepEqual(got, want) {
		c.res.violate("%s: grid result differs from op 1", what)
		return false
	}
	return true
}

func (d gridDigest) totals() simTotals {
	var t simTotals
	for _, f := range d.Runs {
		t.add(f.Summary, f.Quantiles[0], f.Quantiles[2]) // of .5, .9, .99
	}
	return t
}

func runGrid(c *runCtx) error {
	want, _, err := setUp(c, func() (gridDigest, func(), error) {
		d, _, err := gridOp(c.seed, gridOpts{workers: 1})
		return d, func() {}, err
	})
	if err != nil {
		return err
	}
	for i, f := range want.Runs {
		if f.Summary.Total != want.TraceLen || f.Summary.Total == 0 {
			c.res.violate("grid run %d accounts for %d requests, trace has %d", i, f.Summary.Total, want.TraceLen)
		}
		if f.Quantiles == nil {
			return fmt.Errorf("grid run %d completed no request", i)
		}
	}
	if len(want.RAG) != len(rag.Policies()) {
		c.res.violate("grid ran %d RAG policies, want %d", len(want.RAG), len(rag.Policies()))
	}
	op := func(o gridOpts, what string, keep *gridTimes) func(int) error {
		return func(int) error {
			d, times, err := gridOp(c.seed, o)
			if err != nil {
				return err
			}
			if keep != nil {
				*keep = times
			}
			c.res.Attempted++
			if !c.checkGrid(what, d, want) {
				c.res.Failed++
			}
			return nil
		}
	}

	if !c.traced() {
		costs, err := c.measureOps(op(gridOpts{workers: 1}, "op", nil))
		if err != nil {
			return err
		}
		served := want.totals()
		c.setOpCosts(costs, served.total)
		c.setSimMetrics(served)
		return nil
	}

	var all []gridTimes
	base, tracedWalls, err := alternate(c.budget(0.4), c.size.pairs(), op(gridOpts{workers: 1}, "baseline op", nil), func(i int) error {
		var t gridTimes
		err := op(gridOpts{workers: 1, tr: c.tr}, "traced op", &t)(i)
		all = append(all, t)
		return err
	})
	if err != nil {
		return err
	}

	// The cache's write-beside-read check: the same grid against an empty
	// disk cache (every artifact is persisted), then again warm (every
	// artifact is read back), and both must equal the uncached result.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "sweep-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cold, err := timedOps(0, 1, op(gridOpts{workers: 1, cacheDir: dir}, "cold-cache op", nil))
	if err != nil {
		return err
	}
	var warmTimes gridTimes
	if _, err := timedOps(0, 1, op(gridOpts{workers: 1, cacheDir: dir}, "warm-cache op", &warmTimes)); err != nil {
		return err
	}
	if n := len(warmTimes.runElapsed); n != 0 {
		c.res.violate("warm cache executed %d simulations, want 0", n)
	}
	two, err := timedOps(0, 1, op(gridOpts{workers: 2}, "2-worker op", nil))
	if err != nil {
		return err
	}

	var runP50, runMax, ragMs, simMs, events []float64
	for _, t := range all {
		runP50 = append(runP50, median(t.runElapsed))
		runMax = append(runMax, quantile(t.runElapsed, 1))
		ragMs = append(ragMs, ms(t.rag))
		simMs = append(simMs, sum(t.runElapsed)-ms(t.traceElapsed))
		events = append(events, float64(t.events))
	}
	r, n := c.res, len(all)
	r.set("sweep.run_ms_p50", median(runP50), n*len(want.Runs))
	r.set("sweep.run_ms_max", median(runMax), n*len(want.Runs))
	r.set("sweep.cold_persist_ms", cold[0]-median(base), 1)
	r.set("sweep.warm_hit_ms", ms(warmTimes.sweep), 1)
	r.set("sweep.workers2_speedup", median(base)/two[0], 1)
	r.set("rag.run_ms", median(ragMs), n)
	ragGood := 0.0
	for _, res := range want.RAG {
		ragGood += res.NormalizedGoodput / float64(len(want.RAG))
	}
	r.set("rag.goodput", ragGood, len(want.RAG))
	r.set("simgpu.run_ms", median(simMs), n)
	r.set("simgpu.events_per_op", median(events), n)
	r.set("simgpu.events_per_s", median(events)/(median(simMs)/1000), n)
	t := want.totals()
	r.set("policy.drop_share", float64(t.drops)/float64(t.total), t.total)
	c.setTraceOverhead(base, tracedWalls)
	c.setLayerSelf()
	return runProbes(c)
}
