package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pard/internal/pipeline"
)

// newPriorityController builds one controller, as a policy's array holds it.
func newPriorityController(window time.Duration, instant bool) *PriorityController {
	return &NewPriorityControllers(1, window, instant)[0]
}

func uniformWaits(d time.Duration, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * d.Seconds()
	}
	return out
}

func boardFor(spec *pipeline.Spec, q, d time.Duration, waits []float64) *Board {
	b := NewBoard(spec.N())
	for k := 0; k < spec.N(); k++ {
		b.Publish(k, ModuleState{QueueDelay: q, ProfiledDur: d, BatchWait: waits})
	}
	return b
}

func TestBoardPublishGet(t *testing.T) {
	b := NewBoard(3)
	if len(b.states) != 3 {
		t.Fatalf("N = %d", len(b.states))
	}
	b.Publish(1, ModuleState{QueueDelay: time.Millisecond})
	if got := b.Get(1).QueueDelay; got != time.Millisecond {
		t.Fatalf("get = %v", got)
	}
	if got := b.Get(0).QueueDelay; got != 0 {
		t.Fatalf("unpublished state = %v", got)
	}
}

func TestBoardPanicsOnZeroModules(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBoard(0)
}

func TestLsubZeroAtSink(t *testing.T) {
	spec := pipeline.LV()
	rng := rand.New(rand.NewSource(1))
	e := NewEstimator(spec, DefaultEstimatorConfig(), rng)
	b := boardFor(spec, 5*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 500, rng))
	e.Refresh(b)
	if got := e.Lsub(spec.N() - 1); got != 0 { // LV is a chain: the last module is the sink
		t.Fatalf("sink Lsub = %v, want 0", got)
	}
}

func TestLsubDecreasesAlongChain(t *testing.T) {
	spec := pipeline.LV()
	rng := rand.New(rand.NewSource(2))
	e := NewEstimator(spec, DefaultEstimatorConfig(), rng)
	b := boardFor(spec, 5*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 500, rng))
	e.Refresh(b)
	for k := 1; k < spec.N(); k++ {
		if e.Lsub(k) >= e.Lsub(k-1) {
			t.Fatalf("Lsub should shrink along the chain: Lsub(%d)=%v >= Lsub(%d)=%v",
				k, e.Lsub(k), k-1, e.Lsub(k-1))
		}
	}
}

func TestLsubComponents(t *testing.T) {
	// 2-module chain: at module 0, downstream is module 1 only.
	spec := pipeline.Uniform("u2", 2, "facerec", 300*time.Millisecond)
	rng := rand.New(rand.NewSource(3))
	q, d := 7*time.Millisecond, 25*time.Millisecond

	// PARD-back: no downstream at all.
	back := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, Wait: WaitZero}, rng)
	back.Refresh(boardFor(spec, q, d, nil))
	if back.Lsub(0) != 0 {
		t.Fatalf("back Lsub = %v", back.Lsub(0))
	}

	// PARD-sf: only ΣD.
	sf := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeDur: true, Wait: WaitZero}, rng)
	sf.Refresh(boardFor(spec, q, d, nil))
	if sf.Lsub(0) != d {
		t.Fatalf("sf Lsub = %v, want %v", sf.Lsub(0), d)
	}

	// PARD-lower: ΣQ + ΣD.
	lower := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeQueue: true, IncludeDur: true, Wait: WaitZero}, rng)
	lower.Refresh(boardFor(spec, q, d, nil))
	if lower.Lsub(0) != q+d {
		t.Fatalf("lower Lsub = %v, want %v", lower.Lsub(0), q+d)
	}

	// PARD-upper: ΣQ + 2ΣD.
	upper := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeQueue: true, IncludeDur: true, Wait: WaitUpper}, rng)
	upper.Refresh(boardFor(spec, q, d, nil))
	if upper.Lsub(0) != q+2*d {
		t.Fatalf("upper Lsub = %v, want %v", upper.Lsub(0), q+2*d)
	}
}

func TestLsubQuantileBetweenBounds(t *testing.T) {
	spec := pipeline.LV()
	rng := rand.New(rand.NewSource(4))
	q, d := 5*time.Millisecond, 20*time.Millisecond
	waits := uniformWaits(d, 1000, rng)

	mk := func(wait WaitMode, lambda float64) time.Duration {
		e := NewEstimator(spec, EstimatorConfig{Lambda: lambda, samples: 2000, IncludeQueue: true, IncludeDur: true, Wait: wait}, rng)
		e.Refresh(boardFor(spec, q, d, waits))
		return e.Lsub(0)
	}
	lower, mid, upper := mk(WaitZero, 0.1), mk(WaitQuantile, 0.1), mk(WaitUpper, 0.1)
	if !(lower < mid && mid < upper) {
		t.Fatalf("ordering violated: %v %v %v", lower, mid, upper)
	}
	// Monotone in λ.
	lo, hi := mk(WaitQuantile, 0.05), mk(WaitQuantile, 0.9)
	if lo >= hi {
		t.Fatalf("quantile not monotone in λ: %v vs %v", lo, hi)
	}
}

func TestLsubIrwinHallQuantiles(t *testing.T) {
	// §4.2's worked example: equal-duration 4-module pipeline, λ=0.1 →
	// downstream wait quantiles ≈ 0.843d (3 uniforms at module 1) and
	// ≈ 0.10d (1 uniform at module 3).
	d := 100 * time.Millisecond
	spec := pipeline.Uniform("u4", 4, "facerec", 400*time.Millisecond)
	rng := rand.New(rand.NewSource(5))
	waits := uniformWaits(d, 5000, rng)
	e := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 20000, Wait: WaitQuantile}, rng)
	e.Refresh(boardFor(spec, 0, d, waits))
	// With IncludeQueue/IncludeDur off, Lsub is exactly the wait quantile.
	w0 := e.Lsub(0).Seconds() / d.Seconds() // 3 downstream uniforms
	w2 := e.Lsub(2).Seconds() / d.Seconds() // 1 downstream uniform
	if math.Abs(w0-0.843) > 0.08 {
		t.Fatalf("w at module 0 = %v·d, want ≈0.843d", w0)
	}
	if math.Abs(w2-0.10) > 0.05 {
		t.Fatalf("w at module 2 = %v·d, want ≈0.10d", w2)
	}
}

func TestLsubDAGTakesMaxPath(t *testing.T) {
	spec := pipeline.DA()
	rng := rand.New(rand.NewSource(6))
	b := NewBoard(spec.N())
	// Make the pose branch (module 1) slow and the face branch fast.
	durs := []time.Duration{10, 90, 10, 10, 10}
	for k := 0; k < spec.N(); k++ {
		b.Publish(k, ModuleState{ProfiledDur: durs[k] * time.Millisecond})
	}
	e := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeDur: true, Wait: WaitZero}, rng)
	e.Refresh(b)
	// From source: max(90+10+10, 10+10+10) = 110ms.
	if got := e.Lsub(0); got != 110*time.Millisecond {
		t.Fatalf("DAG Lsub = %v, want 110ms", got)
	}
}

func TestEstimateEndToEnd(t *testing.T) {
	spec := pipeline.Uniform("u2", 2, "facerec", 300*time.Millisecond)
	rng := rand.New(rand.NewSource(7))
	e := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeDur: true, Wait: WaitZero}, rng)
	b := boardFor(spec, 0, 30*time.Millisecond, nil)
	e.Refresh(b)
	// ts=10ms, te=100ms, dk=25ms, Lsub(0)=30ms → 145ms.
	got := e.EstimateEndToEnd(10*time.Millisecond, 100*time.Millisecond, 25*time.Millisecond, 0)
	if got != 145*time.Millisecond {
		t.Fatalf("L = %v, want 145ms", got)
	}
}

func TestExplainBreakdown(t *testing.T) {
	spec := pipeline.Uniform("u3", 3, "facerec", 300*time.Millisecond)
	rng := rand.New(rand.NewSource(11))
	cfg := EstimatorConfig{Lambda: 0.1, samples: 500, IncludeQueue: true, IncludeDur: true, Wait: WaitQuantile}
	e := NewEstimator(spec, cfg, rng)
	q, d := 8*time.Millisecond, 25*time.Millisecond
	b := boardFor(spec, q, d, uniformWaits(d, 500, rng))
	e.Refresh(b)
	br := e.Explain(0)
	if len(br.Path) != 2 {
		t.Fatalf("path = %v, want 2 downstream modules", br.Path)
	}
	if br.Queue != 2*q {
		t.Fatalf("ΣQ = %v, want %v", br.Queue, 2*q)
	}
	if br.Exec != 2*d {
		t.Fatalf("ΣD = %v, want %v", br.Exec, 2*d)
	}
	if br.Wait <= 0 || br.Wait > 2*d {
		t.Fatalf("ΣW estimate %v outside (0, %v]", br.Wait, 2*d)
	}
	// Explain reads the last Refresh's estimates: its total is the cached
	// Lsub.
	if br.Total(cfg) != e.Lsub(0) {
		t.Fatalf("Explain total %v differs from Lsub %v", br.Total(cfg), e.Lsub(0))
	}
	// Sink explains to an empty breakdown.
	if br := e.Explain(2); len(br.Path) != 0 || br.Total(cfg) != 0 {
		t.Fatalf("sink breakdown = %+v", br)
	}
}

func TestExplainDAGPicksDominantPath(t *testing.T) {
	spec := pipeline.DA()
	rng := rand.New(rand.NewSource(12))
	b := NewBoard(spec.N())
	durs := []time.Duration{10, 90, 10, 10, 10}
	for k := 0; k < spec.N(); k++ {
		b.Publish(k, ModuleState{ProfiledDur: durs[k] * time.Millisecond})
	}
	e := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 100, IncludeDur: true, Wait: WaitZero}, rng)
	e.Refresh(b)
	br := e.Explain(0)
	if br.Path[0] != 1 { // the slow pose branch dominates
		t.Fatalf("dominant path = %v, want the pose branch", br.Path)
	}
	if br.Exec != 110*time.Millisecond {
		t.Fatalf("dominant ΣD = %v", br.Exec)
	}
}

// TestEstimatorSharesSuffixes: the estimator keeps one node per distinct
// downstream suffix, so a tick convolves once per node where convolving every
// module's paths from scratch took one pass per module on each path.
func TestEstimatorSharesSuffixes(t *testing.T) {
	for _, c := range []struct {
		spec              *pipeline.Spec
		nodes, perPathOld int
	}{
		{pipeline.TM(), 2, 3},
		{pipeline.LV(), 4, 10},
		{pipeline.GM(), 4, 10},
		{pipeline.DA(), 4, 11},
		{pipeline.DADynamic(0.5), 4, 11},
		{pipeline.Uniform("chain70", 70, "facerec", 10*time.Second), 69, 2415},
	} {
		old := 0
		for k := 0; k < c.spec.N(); k++ {
			for _, p := range c.spec.DownstreamPaths(k) {
				old += len(p)
			}
		}
		e := NewEstimator(c.spec, DefaultEstimatorConfig(), rand.New(rand.NewSource(1)))
		if len(e.nodes) != c.nodes || old != c.perPathOld {
			t.Fatalf("%s: %d nodes, %d per-path passes; want %d and %d", c.spec.App, len(e.nodes), old, c.nodes, c.perPathOld)
		}
		if len(e.sums) != c.nodes*DefaultEstimatorConfig().samples {
			t.Fatalf("%s: %d Monte-Carlo sums, want %d per node", c.spec.App, len(e.sums), DefaultEstimatorConfig().samples)
		}
		for i, nd := range e.nodes {
			if nd.next >= i {
				t.Fatalf("%s: node %d's successor %d does not come first", c.spec.App, i, nd.next)
			}
		}
		// Each module's heads spell out its downstream paths, in order.
		for k := 0; k < c.spec.N(); k++ {
			var got [][]int
			for _, h := range e.headsOf(k) {
				var path []int
				for j := h; j >= 0; j = e.nodes[j].next {
					path = append(path, e.nodes[j].mod)
				}
				got = append(got, path)
			}
			if want := c.spec.DownstreamPaths(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: module %d's nodes spell %v, its downstream paths are %v", c.spec.App, k, got, want)
			}
		}
	}
}

// TestLsubExactOnConstantSources: when every module's batch waits are one
// value, every Monte-Carlo sum is the path's exact sum, so Lsub must equal
// the maximum over the module's downstream paths of ΣQ + ΣD + min(ΣW, ΣD),
// computed here path by path from pipeline.Spec.DownstreamPaths. The values
// are dyadic seconds, so the float sums are exact. Durations are chosen so
// the W ≤ ΣD clamp binds on some paths and not on others.
func TestLsubExactOnConstantSources(t *testing.T) {
	for _, spec := range []*pipeline.Spec{pipeline.TM(), pipeline.LV(), pipeline.DA()} {
		n := spec.N()
		q, d, w := make([]time.Duration, n), make([]time.Duration, n), make([]float64, n)
		b := NewBoard(n)
		for k := 0; k < n; k++ {
			q[k] = time.Duration(k+1) * time.Millisecond
			d[k] = time.Duration(3+5*(k%3)) * time.Millisecond
			w[k] = float64(1+2*(k%4)) / 256 // 3.90625 ms, 11.71875 ms, ...
			waits := make([]float64, 64)
			for i := range waits {
				waits[i] = w[k]
			}
			b.Publish(k, ModuleState{QueueDelay: q[k], ProfiledDur: d[k], BatchWait: waits})
		}
		e := NewEstimator(spec, DefaultEstimatorConfig(), rand.New(rand.NewSource(1)))
		for tick := 0; tick < 3; tick++ {
			e.Refresh(b)
			for k := 0; k < n; k++ {
				var want time.Duration
				for _, path := range spec.DownstreamPaths(k) {
					var sq, sd time.Duration
					var sw float64
					for _, m := range path {
						sq, sd, sw = sq+q[m], sd+d[m], sw+w[m]
					}
					want = max(want, sq+sd+min(time.Duration(sw*float64(time.Second)), sd))
				}
				if got := e.Lsub(k); got != want {
					t.Fatalf("%s tick %d: Lsub(%d) = %v, want %v", spec.App, tick, k, got, want)
				}
			}
		}
	}
}

// TestExplainDrawsNothing: Explain reads the last Refresh's estimates, so
// it leaves the estimator's random stream where it was: an estimator that
// explains every module between two ticks draws what one that does not
// draws, and its estimates match.
func TestExplainDrawsNothing(t *testing.T) {
	spec := pipeline.DA()
	src := rand.New(rand.NewSource(9))
	b := boardFor(spec, 4*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 512, src))
	ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	a, quiet := NewEstimator(spec, DefaultEstimatorConfig(), ra), NewEstimator(spec, DefaultEstimatorConfig(), rb)
	for tick := 0; tick < 3; tick++ {
		a.Refresh(b)
		quiet.Refresh(b)
		for k := 0; k < spec.N(); k++ {
			if br := a.Explain(k); br.Total(a.cfg) != a.Lsub(k) {
				t.Fatalf("tick %d: Explain(%d) totals %v, Lsub is %v", tick, k, br.Total(a.cfg), a.Lsub(k))
			}
			if a.Lsub(k) != quiet.Lsub(k) {
				t.Fatalf("tick %d: Lsub(%d) = %v after Explain, %v without", tick, k, a.Lsub(k), quiet.Lsub(k))
			}
		}
	}
	if x, y := ra.Int63(), rb.Int63(); x != y {
		t.Fatalf("Explain moved the random stream: next draw %d, want %d", x, y)
	}
}

// TestAllocsRefresh: a tick's Refresh allocates nothing, in any wait mode.
func TestAllocsRefresh(t *testing.T) {
	spec := pipeline.DA()
	rng := rand.New(rand.NewSource(1))
	b := boardFor(spec, 4*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 512, rng))
	for _, mode := range []WaitMode{WaitQuantile, WaitZero, WaitUpper, WaitAnalytic} {
		cfg := DefaultEstimatorConfig()
		cfg.Wait = mode
		e := NewEstimator(spec, cfg, rng)
		if avg := testing.AllocsPerRun(20, func() { e.Refresh(b) }); avg != 0 {
			t.Fatalf("wait mode %d: Refresh allocates %.1f per tick, want 0", mode, avg)
		}
	}
}

func TestAnalyticWaitMode(t *testing.T) {
	spec := pipeline.Uniform("u4", 4, "facerec", 400*time.Millisecond)
	rng := rand.New(rand.NewSource(13))
	d := 100 * time.Millisecond
	e := NewEstimator(spec, EstimatorConfig{Lambda: 0.1, samples: 1, Wait: WaitAnalytic}, rng)
	e.Refresh(boardFor(spec, 0, d, nil))
	// 3 downstream uniforms at λ=0.1 → ≈0.843d (no samples needed).
	got := e.Lsub(0).Seconds() / d.Seconds()
	if math.Abs(got-0.843) > 0.05 {
		t.Fatalf("analytic w = %v·d, want ≈0.843d", got)
	}
}

func TestEstimatorPanicsOnBadConfig(t *testing.T) {
	spec := pipeline.TM()
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []EstimatorConfig{
		{Lambda: -0.1, samples: 10},
		{Lambda: 1.5, samples: 10},
		{Lambda: 0.1, samples: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v accepted", cfg)
				}
			}()
			NewEstimator(spec, cfg, rng)
		}()
	}
}

func TestSplitBudgets(t *testing.T) {
	durs := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	budgets := SplitBudgets(nil, 600*time.Millisecond, durs)
	if budgets[0] != 100*time.Millisecond || budgets[1] != 200*time.Millisecond || budgets[2] != 300*time.Millisecond {
		t.Fatalf("budgets = %v", budgets)
	}
	cum := CumulativeBudgets(nil, budgets)
	if cum[0] != 100*time.Millisecond || cum[2] != 600*time.Millisecond {
		t.Fatalf("cumulative = %v", cum)
	}
	// Zero durations fall back to an even split.
	even := SplitBudgets(nil, 300*time.Millisecond, []time.Duration{0, 0, 0})
	if even[0] != 100*time.Millisecond {
		t.Fatalf("even split = %v", even)
	}
}

func TestPriorityControllerSteadyStaysLBF(t *testing.T) {
	p := newPriorityController(DefaultPriorityWindow, false)
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * time.Second
		if m := p.Update(now, 100, 200); m != LBF {
			t.Fatalf("t=%v: mode = %v, want LBF", now, m)
		}
	}
	if p.Switches() != 0 {
		t.Fatalf("switches = %d", p.Switches())
	}
}

func TestPriorityControllerOverloadSwitchesToHBF(t *testing.T) {
	p := newPriorityController(DefaultPriorityWindow, false)
	var m Mode
	for i := 0; i < 20; i++ {
		m = p.Update(time.Duration(i)*time.Second, 300, 200)
	}
	if m != HBF {
		t.Fatalf("mode = %v under μ=1.5, want HBF", m)
	}
	if p.lastMu != 1.5 {
		t.Fatalf("μ = %v", p.lastMu)
	}
}

func TestPriorityControllerHysteresisHolds(t *testing.T) {
	p := newPriorityController(DefaultPriorityWindow, false)
	p.epsMin = 0.1
	// Drive into HBF.
	for i := 0; i < 10; i++ {
		p.Update(time.Duration(i)*time.Second, 400, 200)
	}
	if p.Mode() != HBF {
		t.Fatal("not in HBF")
	}
	// μ = 1.05 is inside [1−ε, 1+ε] for ε ≥ 0.1 → hold HBF.
	if m := p.Update(11*time.Second, 210, 200); m != HBF {
		t.Fatalf("mode flipped inside hysteresis band: %v (ε=%v)", m, p.lastEps)
	}
	// μ = 0.5 clearly below band → LBF.
	if m := p.Update(12*time.Second, 100, 200); m != LBF {
		t.Fatalf("mode = %v under μ=0.5, want LBF", m)
	}
}

func TestPriorityControllerInstantThrashes(t *testing.T) {
	mk := func(instant bool) int {
		p := newPriorityController(DefaultPriorityWindow, instant)
		p.epsMin = 0.05
		// Oscillate μ between 0.97 and 1.03 (inside a 5% band).
		for i := 0; i < 200; i++ {
			tin := 97.0
			if i%2 == 1 {
				tin = 103.0
			}
			p.Update(time.Duration(i)*100*time.Millisecond, tin, 100)
		}
		return p.Switches()
	}
	instant, delayed := mk(true), mk(false)
	if instant <= delayed {
		t.Fatalf("instant switches (%d) should exceed delayed (%d)", instant, delayed)
	}
	if delayed != 0 {
		t.Fatalf("delayed transition should hold inside the band, switched %d times", delayed)
	}
}

func TestPriorityControllerEpsilonGrowsWithBurstiness(t *testing.T) {
	steady := newPriorityController(DefaultPriorityWindow, false)
	bursty := newPriorityController(DefaultPriorityWindow, false)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		steady.Update(now, 100, 100)
		tin := 100.0
		if rng.Intn(4) == 0 {
			tin = 400
		}
		bursty.Update(now, tin, 100)
	}
	if bursty.lastEps <= steady.lastEps {
		t.Fatalf("ε should expand under bursts: bursty %v vs steady %v", bursty.lastEps, steady.lastEps)
	}
}

// TestPriorityControllersReserved: controllers built together and reserved
// for their ticks decide exactly as one built alone and left to grow — the
// same mode and the same μ and ε bit for bit on every tick, through many
// compactions of the windows and past the ticks reserved for — and their
// Updates allocate nothing.
func TestPriorityControllersReserved(t *testing.T) {
	const n, period, ticks = 4, 100 * time.Millisecond, 3000
	feed := func(k, i int) float64 { return 100 + float64((i*(k+3))%17)*10 }
	pcs := NewPriorityControllers(n, DefaultPriorityWindow, false)
	ReservePriorityControllers(pcs, period, ticks)
	alone := make([]*PriorityController, n)
	for k := range alone {
		alone[k] = newPriorityController(DefaultPriorityWindow, false)
	}
	step := func(i int) {
		now := time.Duration(i) * period
		for k := range pcs {
			got, want := pcs[k].Update(now, feed(k, i), 150), alone[k].Update(now, feed(k, i), 150)
			if got != want || math.Float64bits(pcs[k].lastEps) != math.Float64bits(alone[k].lastEps) || pcs[k].lastMu != alone[k].lastMu {
				t.Fatalf("tick %d, controller %d: reserved %v (ε %v), alone %v (ε %v)", i, k, got, pcs[k].lastEps, want, alone[k].lastEps)
			}
		}
	}
	step(0)
	i := 1
	if a := testing.AllocsPerRun(ticks-2, func() { step(i); i++ }); a != 0 {
		t.Fatalf("reserved controllers allocate %.2f a tick, want 0", a)
	}
	for ; i < ticks+2000; i++ {
		step(i)
	}
}

func TestPriorityControllerPanics(t *testing.T) {
	for _, window := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("window %v accepted", window)
				}
			}()
			newPriorityController(window, false)
		}()
	}
}

func TestModeString(t *testing.T) {
	if LBF.String() != "LBF" || HBF.String() != "HBF" {
		t.Fatal("mode strings wrong")
	}
	if Mode(7).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// benchRefresh times one sync tick's Refresh under PARD's configuration, every
// module publishing 512 batch-wait samples: the size of a module's
// batch-wait ring in the scheduling core.
func benchRefresh(b *testing.B, spec *pipeline.Spec) {
	rng := rand.New(rand.NewSource(1))
	e := NewEstimator(spec, DefaultEstimatorConfig(), rng)
	board := boardFor(spec, 5*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 512, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Refresh(board)
	}
}

func BenchmarkEstimatorRefreshLV(b *testing.B) { benchRefresh(b, pipeline.LV()) }
func BenchmarkEstimatorRefreshDA(b *testing.B) { benchRefresh(b, pipeline.DA()) }
func BenchmarkEstimatorRefreshChain70(b *testing.B) {
	benchRefresh(b, pipeline.Uniform("chain70", 70, "facerec", 10*time.Second))
}

// BenchmarkBatchWaitEstimation measures the §5.4 overhead of a single
// full-resolution (M=10,000) distribution update for a 5-module pipeline.
func BenchmarkBatchWaitEstimation(b *testing.B) {
	spec := pipeline.LV()
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultEstimatorConfig()
	cfg.samples = 10000
	e := NewEstimator(spec, cfg, rng)
	board := boardFor(spec, 5*time.Millisecond, 20*time.Millisecond, uniformWaits(20*time.Millisecond, 10000, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Refresh(board)
	}
}

func BenchmarkPriorityControllerUpdate(b *testing.B) {
	p := newPriorityController(DefaultPriorityWindow, false)
	for i := 0; i < b.N; i++ {
		p.Update(time.Duration(i)*time.Millisecond, float64(90+i%20), 100)
	}
}
