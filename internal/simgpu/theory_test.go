package simgpu

import (
	"math"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/trace"
)

// singleServerCfg builds a 1-module, 1-worker, batch-size-1 deployment with
// deterministic service time d — an M/D/1 queue whose closed-form behavior
// validates the simulator's batch lifecycle end to end.
func singleServerCfg(t *testing.T, rate float64, d time.Duration, dur time.Duration) Config {
	t.Helper()
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "unit",
		Alpha:    d,
		Beta:     time.Nanosecond, // affine form requires beta > 0
		MaxBatch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	spec := pipeline.Uniform("md1", 1, "unit", time.Hour) // SLO never binds
	return Config{
		Spec:         spec,
		Lib:          lib,
		PolicyName:   "naive",
		Trace:        trace.MustGenerate(trace.Config{Kind: trace.Steady, Duration: dur, PeakRate: rate, Seed: 21}),
		Seed:         21,
		FixedWorkers: []int{1},
		JitterPct:    -1, // deterministic service
		NetDelay:     time.Nanosecond,
	}
}

// TestMD1MeanWait validates the simulator against Pollaczek–Khinchine:
// for M/D/1, E[Wq] = ρ·d / (2(1−ρ)).
func TestMD1MeanWait(t *testing.T) {
	d := 10 * time.Millisecond
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		rate := rho / d.Seconds()
		_, reqs := runRecorded(t, singleServerCfg(t, rate, d, 120*time.Second))
		var sumSojourn float64
		n := 0
		for _, req := range reqs {
			if req.Finished { // the SLO never binds: every completion is good
				sumSojourn += (req.DoneAt - req.Send).Seconds()
				n++
			}
		}
		if n == 0 {
			t.Fatalf("rho=%v: no completions", rho)
		}
		meanWq := sumSojourn/float64(n) - d.Seconds()
		want := rho * d.Seconds() / (2 * (1 - rho))
		// 15% relative + small absolute tolerance for finite-run noise.
		if math.Abs(meanWq-want) > want*0.15+0.0005 {
			t.Fatalf("rho=%v: mean Wq = %.4fs, M/D/1 predicts %.4fs", rho, meanWq, want)
		}
	}
}

// TestUtilizationLaw validates GPU-time accounting: busy fraction = λ·d.
func TestUtilizationLaw(t *testing.T) {
	d := 10 * time.Millisecond
	rho := 0.5
	res, err := Run(singleServerCfg(t, rho/d.Seconds(), d, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	busy := res.Summary.GPUTotal.Seconds() / res.Collector.End().Seconds()
	if math.Abs(busy-rho) > 0.05 {
		t.Fatalf("utilization %.3f, want ≈%.2f", busy, rho)
	}
}

// TestThroughputCappedAtService validates that completions cannot exceed the
// deterministic service capacity 1/d.
func TestThroughputCappedAtService(t *testing.T) {
	d := 10 * time.Millisecond
	res, err := Run(singleServerCfg(t, 3/d.Seconds(), d, 30*time.Second)) // 3× overload
	if err != nil {
		t.Fatal(err)
	}
	completed := res.Summary.Good + res.Summary.Late
	capacity := res.Collector.End().Seconds() / d.Seconds()
	if float64(completed) > capacity*1.01 {
		t.Fatalf("completed %d exceeds capacity %.0f", completed, capacity)
	}
	// And the server should be near-saturated, not idle.
	if float64(completed) < capacity*0.9 {
		t.Fatalf("completed %d far below capacity %.0f under overload", completed, capacity)
	}
}

// TestBatchWaitUniformAtSaturation validates Fig. 3b's premise: when the
// GPU stays busy but the queue does not explode (load just below the batch
// capacity), arrivals join the forming batch throughout the previous
// execution, so batch wait is ~uniform on [0, d]. We check the mean (d/2)
// and that the spread covers most of the support. (Under gross overload the
// deep queue fills batches instantly and W → d; TestOverload* covers that
// regime.)
func TestBatchWaitUniformAtSaturation(t *testing.T) {
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "unit",
		Alpha:    8 * time.Millisecond,
		Beta:     4 * time.Millisecond,
		MaxBatch: 8,
	}); err != nil {
		t.Fatal(err)
	}
	spec := pipeline.Uniform("sat", 1, "unit", time.Hour)
	res, err := Run(Config{
		Spec:       spec,
		Lib:        lib,
		PolicyName: "naive",
		// Capacity at batch 8 is 8/40ms = 200 req/s; offer 92% of it.
		Trace:        trace.MustGenerate(trace.Config{Kind: trace.Steady, Duration: 60 * time.Second, PeakRate: 185, Seed: 23}),
		Seed:         23,
		FixedWorkers: []int{1},
		JitterPct:    -1,
		Probes:       ProbeConfig{Decomposition: true, SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := res.WaitSamples[0]
	if len(samples) < 1000 {
		t.Fatalf("only %d wait samples", len(samples))
	}
	d := res.ProfiledDurs[0].Seconds()
	var mean, max float64
	for _, w := range samples {
		mean += w
		if w > max {
			max = w
		}
	}
	mean /= float64(len(samples))
	if math.Abs(mean-d/2) > 0.15*d {
		t.Fatalf("mean batch wait %.4fs, uniform predicts %.4fs", mean, d/2)
	}
	if max < 0.9*d {
		t.Fatalf("max batch wait %.4fs never approaches d=%.4fs", max, d)
	}
}
