package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pard/internal/core"
	"pard/internal/depq"
	"pard/internal/load"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/sched"
	"pard/internal/server"
	"pard/internal/stats"
	"pard/internal/trace"
)

// The isolated probes call one package's exported functions directly, on
// inputs sized like the workloads', and run in every traced pass: their
// figures do not depend on the workload, only on the code.

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink any

// perCall times batches of n calls and returns the median batch's cost per
// call. Batches, not single calls, because a clock read costs as much as the
// nanosecond-scale calls being timed.
func perCall(batches, n int, fn func(i int)) time.Duration {
	times := make([]float64, batches)
	for b := range times {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		times[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(times))
}

// runProbes measures every isolated per-layer metric.
func runProbes(c *runCtx) error {
	r := c.res
	rng := rand.New(rand.NewSource(c.seed))

	// internal/trace: the two traces the sim workloads are built on.
	var genErr error
	gen := perCall(3, 1, func(int) {
		for _, cfg := range []trace.Config{
			{Kind: trace.Tweet, Duration: gridTraceDuration, Seed: c.seed},
			{Kind: trace.Steady, Duration: 20 * time.Second, PeakRate: 3500, Seed: c.seed},
		} {
			tr, err := trace.Generate(cfg)
			if err != nil {
				genErr = err
			}
			probeSink = tr
		}
	})
	if genErr != nil {
		return fmt.Errorf("trace probe: %w", genErr)
	}
	r.set("trace.generate_ms", ms(gen), 3)

	// internal/depq: push plus alternating pops at depth 1024.
	q := depq.New[int]()
	for i := 0; i < 1024; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
	}
	r.set("depq.push_pop_ns", float64(perCall(5, 100_000, func(i int) {
		q.Push(i, int64(rng.Intn(1<<20)))
		if i%2 == 0 {
			q.PopMin()
		} else {
			q.PopMax()
		}
	})), 500_000)

	// internal/core: the state board and the latency estimator on the
	// five-module LV pipeline with 512 wait samples per module.
	spec := pipeline.LV()
	waits := make([]float64, 512)
	for i := range waits {
		waits[i] = rng.Float64() * 0.03
	}
	state := core.ModuleState{
		QueueDelay: 5 * time.Millisecond, ProfiledDur: 30 * time.Millisecond,
		BatchWait: waits, InputRate: 300, Throughput: 400,
	}
	board := core.NewBoard(spec.N())
	for k := 0; k < spec.N(); k++ {
		board.Publish(k, state)
	}
	r.set("core.board_publish_ns", float64(perCall(5, 100_000, func(i int) {
		board.Publish(i%spec.N(), state)
	})), 500_000)
	r.set("core.board_get_ns", float64(perCall(5, 100_000, func(i int) {
		probeSink = board.Get(i % spec.N()).QueueDelay
	})), 500_000)
	est := core.NewEstimator(spec, core.DefaultEstimatorConfig(), rng)
	r.set("core.estimator_refresh_us", us(perCall(5, 20, func(int) { est.Refresh(board) })), 100)
	r.set("core.entry_estimate_ns", float64(perCall(5, 100_000, func(i int) {
		probeSink = est.EntryEstimate(board, i%spec.N())
	})), 500_000)

	// internal/policy: one keep/drop decision, and one sync round.
	durs := make([]time.Duration, spec.N())
	for i := range durs {
		durs[i] = 30 * time.Millisecond
	}
	pol, err := policy.New("pard", policy.Setup{Spec: spec, Durs: durs, Rng: rng})
	if err != nil {
		return fmt.Errorf("policy probe: %w", err)
	}
	pol.OnSync(time.Second, board)
	decide := policy.DecideCtx{
		Req:           policy.RequestInfo{Send: 0, Deadline: spec.SLO, ArriveModule: 0},
		Module:        0,
		Now:           100 * time.Millisecond,
		ExpectedStart: 110 * time.Millisecond,
		ExecDur:       30 * time.Millisecond,
		SLO:           spec.SLO,
	}
	r.set("policy.decide_ns", float64(perCall(5, 100_000, func(int) {
		probeSink = pol.Decide(decide)
	})), 500_000)
	r.set("policy.onsync_us", us(perCall(5, 20, func(i int) {
		pol.OnSync(time.Duration(i+2)*time.Second, board)
	})), 100)

	// internal/stats: the estimator's Monte-Carlo convolution and the
	// collectors' percentile pass.
	sources := make([][]float64, 5)
	for i := range sources {
		sources[i] = waits
	}
	var scratch []float64
	r.set("stats.convolve_quantile_us", us(perCall(5, 20, func(int) {
		probeSink, scratch = stats.ConvolveQuantileInto(scratch, sources, 0.1, 2000, rng)
	})), 100)
	const records = 70_000
	values, work := make([]float64, records), make([]float64, records)
	for i := range values {
		values[i] = rng.Float64()
	}
	var dst []float64
	r.set("stats.percentiles_us", us(perCall(5, 1, func(int) {
		copy(work, values) // PercentilesInto sorts in place; each call gets unsorted input
		dst = stats.PercentilesInto(dst[:0], work, 0.5, 0.9, 0.99)
	})), 5)

	// internal/metrics: filling and finalizing a collector the size of one
	// dense run, then Summary's growth from 10 k to 100 k records.
	fill := func(n int) *metrics.Collector {
		col := metrics.NewCollector(400*time.Millisecond, 5)
		for i := 0; i < n; i++ {
			rec := metrics.Record{
				Send: time.Duration(i) * 300 * time.Microsecond, GPUTime: 20 * time.Millisecond,
				Outcome: metrics.Good, DropModule: -1,
			}
			rec.Done = rec.Send + time.Duration(100+i%250)*time.Millisecond
			if i%7 == 0 {
				rec.Outcome, rec.DropModule = metrics.DroppedOutcome, i%5
			}
			col.Add(rec)
		}
		return col
	}
	var col *metrics.Collector
	add := perCall(3, 1, func(int) { col = fill(records) })
	r.set("metrics.add_ns", float64(add)/records, 3*records)
	r.set("metrics.summary_ms", ms(perCall(5, 20, func(int) { probeSink = col.Summary() })), 100)
	r.set("metrics.finalize_ms", ms(perCall(5, 1, func(int) {
		col.MinNormalizedGoodput(10 * time.Second)
		col.MaxDropRate(10 * time.Second)
		probeSink = col.LatencyQuantiles(0.5, 0.9, 0.99)
	})), 5)
	small, large := fill(10_000), fill(100_000)
	growth := perCall(5, 20, func(int) { probeSink = large.Summary() }) -
		perCall(5, 20, func(int) { probeSink = small.Summary() })
	r.set("metrics.summary_us_per_krecord", us(growth)/90, 100)

	// internal/load: the latency histogram on the closed loop's hot path.
	var hist load.Hist
	r.set("load.hist_record_ns", float64(perCall(5, 100_000, func(i int) {
		hist.Record(time.Duration(500+i%4000) * time.Microsecond)
		if i%1000 == 0 {
			probeSink = hist.Quantile(0.99)
		}
	})), 500_000)

	if err := probeSubmit(c); err != nil {
		return err
	}
	probeTimerLag(c)
	return nil
}

// probeSubmit measures the live server's request lifecycle with no clock in
// the way: submit, traversal of the three-module fast chain on a manual
// executor, and delivery of the response (the BenchmarkServerSubmit shape).
func probeSubmit(c *runCtx) error {
	lib, err := fastLibrary()
	if err != nil {
		return err
	}
	man := sched.NewManualExecutor()
	s, err := server.New(server.Config{
		Spec:       pipeline.Uniform("bench", 3, "fast", httpSLO),
		Lib:        lib,
		PolicyName: "pard",
		SyncPeriod: 50 * time.Millisecond,
		Seed:       c.seed,
		Exec:       man,
	})
	if err != nil {
		return err
	}
	s.Start()
	defer s.Stop()
	const batch, batches = 512, 20
	chans := make([]<-chan server.Response, batch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for b := 0; b < batches; b++ {
		for j := range chans {
			chans[j] = s.Submit()
		}
		// The core guarantees every injected request terminates; a few SLOs
		// of virtual time resolve the whole batch.
		for step := 0; ; step++ {
			man.RunUntil(man.Now() + httpSLO)
			pending := 0
			for _, ch := range chans {
				if len(ch) == 0 {
					pending++
				}
			}
			if pending == 0 {
				break
			}
			if step > 1000 {
				return fmt.Errorf("submit probe: %d of %d requests never resolved", pending, batch)
			}
		}
		for _, ch := range chans {
			<-ch
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(batch * batches)
	c.res.set("server.submit_resolve_ns", float64(elapsed)/n, batch*batches)
	c.res.set("server.submit_allocs", float64(m1.Mallocs-m0.Mallocs)/n, batch*batches)
	return nil
}

// probeTimerLag measures how late the wall-clock executor fires: timers set
// between one and a few hundred milliseconds ahead, as a live server's batch
// timers are, and the distance from each one's due instant to its callback.
func probeTimerLag(c *runCtx) {
	const timers = 1000
	x := sched.NewTimerExecutor()
	defer x.Stop()
	lag := make([]float64, timers)
	var wg sync.WaitGroup
	wg.Add(timers)
	base := x.Now() + time.Millisecond
	for i := 0; i < timers; i++ {
		at := base + time.Duration(i)*300*time.Microsecond
		x.Schedule(at, "probe", func(now time.Duration) {
			lag[i] = us(now - at)
			wg.Done()
		})
	}
	wg.Wait()
	c.res.set("sched.timer_lag_p50_us", median(lag), timers)
	c.res.set("sched.timer_lag_p99_us", quantile(lag, 0.99), timers)
}
