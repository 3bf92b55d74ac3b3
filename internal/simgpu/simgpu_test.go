package simgpu

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/trace"
)

func steadyTrace(rate float64, dur time.Duration, seed int64) *trace.Trace {
	return trace.MustGenerate(trace.Config{Kind: trace.Steady, Duration: dur, PeakRate: rate, Seed: seed})
}

func runLV(t *testing.T, pol string, tr *trace.Trace, mutate func(*Config)) *Result {
	t.Helper()
	res, _ := runRecorded(t, lvConfig(pol, tr, mutate))
	return res
}

func lvConfig(pol string, tr *trace.Trace, mutate func(*Config)) Config {
	cfg := Config{
		Spec:       pipeline.LV(),
		PolicyName: pol,
		Trace:      tr,
		Seed:       42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// runRecorded runs cfg and returns the result with the runner's requests,
// each holding its fate: the per-request ledger.
func runRecorded(t *testing.T, cfg Config) (*Result, []*sched.Request) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.Requests()
}

// TestConfigValidation: New refuses a malformed config with an error that
// names what is wrong, and never panics. Every value past the first four
// reaches a spoke in a simulation job off the wire, and each once panicked
// inside Run or built a cluster that dropped every request.
func TestConfigValidation(t *testing.T) {
	tr := steadyTrace(50, 2*time.Second, 1)
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"no-spec", func(c *Config) { c.Spec = nil }, "pipeline spec"},
		{"no-trace", func(c *Config) { c.Trace = nil }, "non-empty trace"},
		{"unknown-policy", func(c *Config) { c.PolicyName = "bogus" }, "bogus"},
		{"fixed-workers-short", func(c *Config) { c.FixedWorkers = []int{1, 2} }, "workers: 2 worker counts"},
		{"fixed-workers-negative", func(c *Config) { c.FixedWorkers = []int{-1, 1, 1, 1, 1} }, "workers: module 0"},
		{"fixed-workers-zero", func(c *Config) { c.FixedWorkers = []int{1, 1, 0, 1, 1} }, "workers: module 2"},
		{"fixed-workers-past-limit", func(c *Config) { c.FixedWorkers = []int{1, 1, 1, 1, sched.PoolLimit + 1} }, "workers: module 4"},
		{"lambda-above-one", func(c *Config) { c.Lambda = 5 }, "Lambda"},
		{"lambda-nan", func(c *Config) { c.Lambda = math.NaN() }, "Lambda"},
		{"jitter-above-one", func(c *Config) { c.JitterPct = 2 }, "JitterPct"},
		{"arrivals-out-of-order", func(c *Config) {
			c.Trace = &trace.Trace{Arrivals: []time.Duration{time.Second, 0}, Duration: 2 * time.Second}
		}, "trace arrivals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Spec: pipeline.LV(), Trace: tr}
			tc.mod(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("New panicked: %v", p)
				}
			}()
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestNetDelaySentinel pins the zero-vs-default disambiguation: an unset
// NetDelay selects the 1 ms default, while a negative value requests an
// explicitly zero per-hop delay (mirroring the JitterPct sentinel). Pre-fix
// a negative value was rejected, so callers wanting in-process hops had to
// smuggle in time.Nanosecond.
func TestNetDelaySentinel(t *testing.T) {
	tr := steadyTrace(50, 5*time.Second, 1)
	base := Config{Spec: pipeline.LV(), Trace: tr}

	cfg := base
	out, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if out.NetDelay != time.Millisecond {
		t.Fatalf("unset NetDelay defaulted to %v, want 1ms", out.NetDelay)
	}

	cfg = base
	cfg.NetDelay = -1
	out, err = cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if out.NetDelay != 0 {
		t.Fatalf("NetDelay -1 resolved to %v, want explicit 0", out.NetDelay)
	}

	cfg = base
	cfg.NetDelay = 3 * time.Millisecond
	out, err = cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if out.NetDelay != 3*time.Millisecond {
		t.Fatalf("explicit NetDelay resolved to %v, want 3ms", out.NetDelay)
	}
}

// TestNetDelayZeroMatchesNanosecond pins the CompareSim migration: replaying
// the same trace with the explicit-zero sentinel must classify requests
// identically to the old time.Nanosecond workaround (a 1 ns hop never spans
// a scheduling decision boundary).
func TestNetDelayZeroMatchesNanosecond(t *testing.T) {
	tr := steadyTrace(80, 5*time.Second, 7)
	runWith := func(nd time.Duration) *Result {
		return runLV(t, "pard", tr, func(c *Config) {
			c.NetDelay = nd
			c.JitterPct = -1
			c.FixedWorkers = []int{2, 2, 2, 2, 2}
		})
	}
	a, b := runWith(-1), runWith(time.Nanosecond)
	if a.Summary.Good != b.Summary.Good ||
		a.Summary.Late != b.Summary.Late ||
		a.Summary.Dropped != b.Summary.Dropped ||
		a.Summary.Total != b.Summary.Total {
		t.Fatalf("explicit-zero run (good=%d late=%d dropped=%d total=%d) differs from 1ns run (good=%d late=%d dropped=%d total=%d)",
			a.Summary.Good, a.Summary.Late, a.Summary.Dropped, a.Summary.Total,
			b.Summary.Good, b.Summary.Late, b.Summary.Dropped, b.Summary.Total)
	}
}

func TestTargetBatches(t *testing.T) {
	spec := pipeline.LV()
	lib := profile.DefaultLibrary()
	batches, durs, err := sched.TargetBatches(spec, lib, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != spec.N() || len(durs) != spec.N() {
		t.Fatalf("lengths: %d %d", len(batches), len(durs))
	}
	var sum time.Duration
	for k, b := range batches {
		if b < 1 {
			t.Fatalf("module %d batch %d", k, b)
		}
		m, _ := lib.Get(spec.Modules[k].Name)
		if durs[k] != m.Duration(b) {
			t.Fatalf("module %d dur mismatch", k)
		}
		sum += durs[k]
	}
	// One pass of pure execution must fit comfortably inside the SLO.
	if sum > spec.SLO/2 {
		t.Fatalf("Σd = %v too large for SLO %v", sum, spec.SLO)
	}
	if _, _, err := sched.TargetBatches(spec, lib, 0); err == nil {
		t.Fatal("frac=0 accepted")
	}
}

// TestProvisionWorkers: below the scaling engine's per-module cap every
// module gets the capacity for the rate, and a rate far past it gets the cap
// everywhere, no fewer workers than any lower rate.
func TestProvisionWorkers(t *testing.T) {
	spec := pipeline.LV()
	lib := profile.DefaultLibrary()
	batches, _, _ := sched.TargetBatches(spec, lib, 0.25)
	const rate = 50
	ws, err := sched.ProvisionWorkers(spec, lib, batches, rate)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := sched.ProvisionWorkers(spec, lib, batches, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ws, capped) {
		t.Fatalf("%v req/s already reaches the cap %v", float64(rate), capped)
	}
	for k, w := range ws {
		m, _ := lib.Get(spec.Modules[k].Name)
		if cap := float64(w) * m.Throughput(batches[k]); w < 1 || cap < rate {
			t.Fatalf("module %d underprovisioned: %d workers, capacity %v", k, w, cap)
		}
		if capped[k] != capped[0] || capped[k] < w {
			t.Fatalf("module %d: %d workers at %v req/s, %d past the cap (module 0: %d)", k, w, float64(rate), capped[k], capped[0])
		}
	}
}

func TestLightLoadNoDrops(t *testing.T) {
	tr := steadyTrace(100, 30*time.Second, 7)
	for _, pol := range []string{"pard", "nexus", "clipper++", "naive", "pard-fcfs"} {
		res := runLV(t, pol, tr, nil)
		if res.Summary.Total != tr.Len() {
			t.Fatalf("%s: %d records for %d arrivals", pol, res.Summary.Total, tr.Len())
		}
		if res.Summary.DropRate > 0.01 {
			t.Fatalf("%s: drop rate %v under light load", pol, res.Summary.DropRate)
		}
		if res.Summary.Good < int(0.99*float64(tr.Len())) {
			t.Fatalf("%s: only %d/%d good", pol, res.Summary.Good, tr.Len())
		}
	}
}

func TestConservation(t *testing.T) {
	tr := steadyTrace(600, 20*time.Second, 3)
	for _, pol := range []string{"pard", "nexus", "naive"} {
		res := runLV(t, pol, tr, func(c *Config) {
			c.FixedWorkers = []int{1, 1, 1, 1, 1}
		})
		s := res.Summary
		if s.Good+s.Late+s.Dropped != s.Total {
			t.Fatalf("%s: %d+%d+%d != %d", pol, s.Good, s.Late, s.Dropped, s.Total)
		}
		if s.Total != tr.Len() {
			t.Fatalf("%s: lost requests: %d vs %d", pol, s.Total, tr.Len())
		}
	}
}

func TestOverloadDropsProportionally(t *testing.T) {
	// Fixed single workers; offered ≈ 2× the bottleneck capacity. A sane
	// policy sheds roughly the excess and keeps goodput near capacity.
	tr := steadyTrace(700, 30*time.Second, 5)
	res := runLV(t, "pard", tr, func(c *Config) {
		c.FixedWorkers = []int{1, 1, 1, 1, 1}
	})
	s := res.Summary
	// One worker per module sustains ≈130 req/s; offered 700 req/s, so a
	// sane policy drops roughly the excess (≈0.8) without collapsing.
	if s.DropRate < 0.5 || s.DropRate > 0.95 {
		t.Fatalf("drop rate %v outside plausible overload band", s.DropRate)
	}
	// Goodput should track capacity (≈130/700 ≈ 19% of offered), not collapse.
	if s.Good < tr.Len()/10 {
		t.Fatalf("goodput collapsed: %d/%d good", s.Good, s.Total)
	}
}

func TestNaiveOverloadCollapses(t *testing.T) {
	tr := steadyTrace(700, 30*time.Second, 5)
	naive := runLV(t, "naive", tr, func(c *Config) { c.FixedWorkers = []int{1, 1, 1, 1, 1} })
	pard := runLV(t, "pard", tr, func(c *Config) { c.FixedWorkers = []int{1, 1, 1, 1, 1} })
	// Without dropping, queueing makes nearly everything late.
	if naive.Summary.Good >= pard.Summary.Good {
		t.Fatalf("naive good %d >= pard good %d under overload",
			naive.Summary.Good, pard.Summary.Good)
	}
	if naive.Summary.InvalidRate <= pard.Summary.InvalidRate {
		t.Fatalf("naive invalid %v <= pard invalid %v",
			naive.Summary.InvalidRate, pard.Summary.InvalidRate)
	}
}

func TestDeterminism(t *testing.T) {
	tr := steadyTrace(400, 15*time.Second, 9)
	a := runLV(t, "pard", tr, nil)
	b := runLV(t, "pard", tr, nil)
	if a.Summary.Good != b.Summary.Good || a.Summary.Dropped != b.Summary.Dropped ||
		a.Summary.Late != b.Summary.Late || a.Summary.GPUTotal != b.Summary.GPUTotal ||
		a.SimEvents != b.SimEvents {
		t.Fatalf("runs diverged: %+v vs %+v", a.Summary, b.Summary)
	}
}

func TestPARDDropsEarlierThanNexus(t *testing.T) {
	// Under the bursty workload with autoscaling (the paper's setting), the
	// reactive policy concentrates drops in the latter half of the pipeline
	// (Fig. 2c) while PARD shifts them toward the first modules (Fig. 11b),
	// and PARD drops less and wastes less GPU time overall.
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 400 * time.Second, Seed: 11})
	nexus := runLV(t, "nexus", tr, nil)
	pard := runLV(t, "pard", tr, nil)

	lateHalf := func(r *Result) float64 {
		p := r.Summary.PerModuleDropPct
		return p[3] + p[4]
	}
	if lateHalf(nexus) <= lateHalf(pard) {
		t.Fatalf("nexus should drop later than pard: nexus %v vs pard %v",
			nexus.Summary.PerModuleDropPct, pard.Summary.PerModuleDropPct)
	}
	if pard.Summary.DropRate >= nexus.Summary.DropRate {
		t.Fatalf("pard drop %v >= nexus drop %v",
			pard.Summary.DropRate, nexus.Summary.DropRate)
	}
	// And PARD wastes less GPU time on doomed requests.
	if pard.Summary.InvalidRate >= nexus.Summary.InvalidRate {
		t.Fatalf("pard invalid %v >= nexus invalid %v",
			pard.Summary.InvalidRate, nexus.Summary.InvalidRate)
	}
}

func TestDAGPipelineRuns(t *testing.T) {
	tr := steadyTrace(100, 20*time.Second, 13)
	cfg := Config{Spec: pipeline.DA(), PolicyName: "pard", Trace: tr, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Total != tr.Len() {
		t.Fatalf("lost requests in DAG: %d vs %d", s.Total, tr.Len())
	}
	if s.Good+s.Late+s.Dropped != s.Total {
		t.Fatalf("DAG conservation broken: %+v", s)
	}
	if s.DropRate > 0.05 {
		t.Fatalf("DAG drop rate %v under light load", s.DropRate)
	}
}

func TestDAGDynamicPathRuns(t *testing.T) {
	tr := steadyTrace(100, 20*time.Second, 17)
	cfg := Config{Spec: pipeline.DADynamic(0.5), PolicyName: "pard", Trace: tr, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != tr.Len() {
		t.Fatalf("lost requests: %d vs %d", res.Summary.Total, tr.Len())
	}
	if res.Summary.Good+res.Summary.Late+res.Summary.Dropped != res.Summary.Total {
		t.Fatal("conservation broken on dynamic DAG")
	}
}

func TestScalingReactsToBurst(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Step, Duration: 60 * time.Second, PeakRate: 600, Seed: 19})
	cfg := Config{Spec: pipeline.LV(), PolicyName: "pard", Trace: tr, Seed: 1}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := r.cl.ActiveWorkers(0)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakWorkers[0] <= initial {
		t.Fatalf("scaling did not add workers: initial %d, peak %d", initial, res.PeakWorkers[0])
	}
}

func TestColdStartDelaysServing(t *testing.T) {
	// A step trace with scaling: during the cold-start window after the
	// step, drops/lateness occur; a system with instant scaling would not
	// show them. We simply verify the step run has a worse minimum window
	// than the steady run at the same final rate.
	step := trace.MustGenerate(trace.Config{Kind: trace.Step, Duration: 60 * time.Second, PeakRate: 800, Seed: 23})
	steady := steadyTrace(400, 60*time.Second, 23)
	resStep := runLV(t, "pard", step, nil)
	resSteady := runLV(t, "pard", steady, nil)
	if resStep.Collector.MinNormalizedGoodput(5*time.Second) > resSteady.Collector.MinNormalizedGoodput(5*time.Second) {
		t.Fatalf("step trace should stress the scaler harder: step %v vs steady %v",
			resStep.Collector.MinNormalizedGoodput(5*time.Second),
			resSteady.Collector.MinNormalizedGoodput(5*time.Second))
	}
}

func TestProbesPopulate(t *testing.T) {
	tr := steadyTrace(300, 15*time.Second, 29)
	res := runLV(t, "pard", tr, func(c *Config) {
		c.Probes = ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 1}
	})
	if len(res.QueueDelay) != 5 || res.QueueDelay[0].Len() == 0 {
		t.Fatal("queue delay probe empty")
	}
	if res.LoadFactor == nil || res.LoadFactor.Len() == 0 {
		t.Fatal("load factor probe empty")
	}
	if res.ModeSeries == nil || res.ModeSeries.Len() != res.LoadFactor.Len() {
		t.Fatal("mode probe mismatched")
	}
	if len(res.Consumed) != 5 || res.Consumed[0].Len() == 0 {
		t.Fatal("consumed budget probe empty")
	}
	if len(res.Remaining) != 5 || res.Remaining[0].Len() == 0 {
		t.Fatal("remaining budget probe empty")
	}
	if len(res.WaitSamples) != 5 || len(res.WaitSamples[0]) == 0 {
		t.Fatal("wait samples empty")
	}
	if len(res.SumQ) == 0 || len(res.SumQ) != len(res.SumW) || len(res.SumW) != len(res.SumD) {
		t.Fatal("decomposition samples missing")
	}
}

func TestBatchWaitWithinExecutionBounds(t *testing.T) {
	tr := steadyTrace(400, 15*time.Second, 31)
	res := runLV(t, "pard", tr, func(c *Config) {
		c.Probes = ProbeConfig{Decomposition: true, SampleEvery: 1}
		c.JitterPct = -1 // disable jitter so d is exact
	})
	for k, samples := range res.WaitSamples {
		maxD := res.ProfiledDurs[k].Seconds() * 1.05
		for _, w := range samples {
			if w < 0 || w > maxD+1e-9 {
				t.Fatalf("module %d batch wait %v outside [0, %v]", k, w, maxD)
			}
		}
	}
}

func TestHBFvsLBFDiffer(t *testing.T) {
	tr := steadyTrace(700, 25*time.Second, 37)
	fixed := func(c *Config) { c.FixedWorkers = []int{1, 1, 1, 1, 1} }
	hbf := runLV(t, "pard-hbf", tr, fixed)
	lbf := runLV(t, "pard-lbf", tr, fixed)
	if hbf.Summary.Good == lbf.Summary.Good && hbf.Summary.Dropped == lbf.Summary.Dropped {
		t.Fatal("HBF and LBF produced identical outcomes under overload; priority has no effect")
	}
}

func TestGPUAccounting(t *testing.T) {
	tr := steadyTrace(200, 10*time.Second, 41)
	res := runLV(t, "pard", tr, nil)
	s := res.Summary
	if s.GPUTotal <= 0 {
		t.Fatal("no GPU time recorded")
	}
	// 5 modules; per-request GPU time is bounded by Σ d(1) (worst: solo
	// batches) and must be positive for completed requests.
	perReq := s.GPUTotal / time.Duration(s.Total)
	if perReq <= 0 || perReq > 200*time.Millisecond {
		t.Fatalf("per-request GPU time %v implausible", perReq)
	}
	if s.GPUWasted > s.GPUTotal {
		t.Fatal("wasted exceeds total")
	}
}

func TestRunnerCannotRunTwice(t *testing.T) {
	tr := steadyTrace(50, 5*time.Second, 43)
	r, err := New(Config{Spec: pipeline.LV(), PolicyName: "pard", Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestStressGoodputSaturates(t *testing.T) {
	// As offered load rises past fixed capacity, goodput should level off
	// rather than collapse (Fig. 14a shape for PARD).
	var prevGood float64
	for i, rate := range []float64{200, 500, 900} {
		tr := steadyTrace(rate, 20*time.Second, 47)
		res := runLV(t, "pard", tr, func(c *Config) { c.FixedWorkers = []int{2, 2, 2, 2, 2} })
		good := float64(res.Summary.Good) / res.Collector.End().Seconds()
		if i > 0 && good < prevGood*0.7 {
			t.Fatalf("goodput collapsed at rate %v: %v after %v", rate, good, prevGood)
		}
		prevGood = good
	}
	_ = math.Inf
}

func BenchmarkSimLVSteady(b *testing.B) {
	tr := steadyTrace(300, 10*time.Second, 1)
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{Spec: pipeline.LV(), PolicyName: "pard", Trace: tr, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestProbesDoNotMoveTheRun: a probe watches a run without changing it.
// Under every policy, a run with every probe on decides every request as the
// same run with none: the same summary, event count and, request by
// request, the same fate. The trace is long enough that the source's
// decomposition ring (10 000 waits) fills and wraps, and bursty enough that
// every policy that drops, drops: when that probe was a random sample drawn
// from the module's batch-wait stream, pard's run here read one good request
// fewer with the probes on.
func TestProbesDoNotMoveTheRun(t *testing.T) {
	spec := pipeline.LV()
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 30 * time.Second, PeakRate: 1000, Seed: 1})
	for _, name := range policy.Names() {
		cfg := Config{Spec: spec, PolicyName: name, Trace: tr, Seed: 1}
		bare, bareReqs := runRecorded(t, cfg)
		cfg.Probes = ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 1}
		probed, probedReqs := runRecorded(t, cfg)
		if n := len(probed.WaitSamples[spec.Source()]); n != 10000 {
			t.Fatalf("%s: the source's decomposition ring holds %d waits, want it full", name, n)
		}
		if !reflect.DeepEqual(bare.Summary, probed.Summary) || bare.SimEvents != probed.SimEvents {
			t.Fatalf("%s: probes moved the run:\n  bare   %+v (%d events)\n  probed %+v (%d events)", name, bare.Summary, bare.SimEvents, probed.Summary, probed.SimEvents)
		}
		for i := range bareReqs {
			if a, b := bareReqs[i], probedReqs[i]; a.DropModule != b.DropModule {
				t.Fatalf("%s: request %d dropped at module %d bare, %d probed", name, a.ID, a.DropModule, b.DropModule)
			}
		}
		t.Logf("%s: %d good, %d dropped of %d", name, bare.Summary.Good, bare.Summary.Dropped, bare.Summary.Total)
	}
}
