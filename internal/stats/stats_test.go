package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSlidingWindowEviction(t *testing.T) {
	w := NewSlidingWindow(5 * time.Second)
	for i := 0; i < 10; i++ {
		w.Add(time.Duration(i)*time.Second, float64(i))
	}
	// At t=9s the window covers (4s, 9s]: samples 5..9 plus the boundary
	// sample at 4s (cut is strictly-less eviction).
	if got := w.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if m := w.Sum(9*time.Second) / float64(w.Len()); m != 6.5 {
		t.Fatalf("plain mean = %v, want 6.5", m)
	}
}

func TestSlidingWindowExactSpanBoundary(t *testing.T) {
	w := NewSlidingWindow(5 * time.Second)
	w.Add(0, 1)             // exactly now-span at t=5s: survives (eviction is at < cut)
	w.Add(time.Second, 2)   // inside
	w.Add(5*time.Second, 3) // now
	if got := w.Len(); got != 3 {
		t.Fatalf("Len at exact boundary = %d, want 3", got)
	}
	if vs := w.ValuesInto(5*time.Second, nil); len(vs) != 3 || vs[0] != 1 {
		t.Fatalf("boundary sample missing from ValuesInto: %v", vs)
	}
	// The boundary sample carries zero linear weight, so it survives eviction
	// but contributes nothing to the weighted mean.
	m, ok := w.Mean(5 * time.Second)
	want := ((1-4.0/5.0)*2 + 1*3) / ((1 - 4.0/5.0) + 1)
	if !ok || math.Abs(m-want) > 1e-9 {
		t.Fatalf("weighted mean = %v, want %v", m, want)
	}
	// One nanosecond past the span, the boundary sample is evicted.
	w.evict(5*time.Second + time.Nanosecond)
	if got := w.Len(); got != 2 {
		t.Fatalf("Len one tick past boundary = %d, want 2", got)
	}
}

func TestSlidingWindowLinearWeighting(t *testing.T) {
	w := NewSlidingWindow(10 * time.Second)
	w.Add(0, 100)             // age 10s at t=10 → weight 0
	w.Add(5*time.Second, 50)  // age 5 → weight 0.5
	w.Add(10*time.Second, 10) // age 0 → weight 1
	m, ok := w.Mean(10 * time.Second)
	if !ok {
		t.Fatal("mean not available")
	}
	want := (0.5*50 + 1*10) / 1.5
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("weighted mean = %v, want %v", m, want)
	}
}

func TestSlidingWindowEmpty(t *testing.T) {
	w := NewSlidingWindow(time.Second)
	if _, ok := w.Mean(0); ok {
		t.Fatal("empty window reported a mean")
	}
	if w.Sum(0) != 0 {
		t.Fatal("empty window sum != 0")
	}
}

func TestSlidingWindowOutOfOrderClamped(t *testing.T) {
	w := NewSlidingWindow(time.Second)
	w.Add(5*time.Second, 1)
	w.Add(4*time.Second, 2) // clamped forward to 5s
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
}

func TestSlidingWindowCompaction(t *testing.T) {
	w := NewSlidingWindow(time.Millisecond)
	for i := 0; i < 10000; i++ {
		w.Add(time.Duration(i)*time.Millisecond, 1)
	}
	if w.Len() != 2 { // boundary sample + current
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	if len(w.samples) > 4096 {
		t.Fatalf("window did not compact: %d backing samples", len(w.samples))
	}
}

func TestSlidingWindowPanicsOnBadSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlidingWindow(0)
}

func TestRateWindow(t *testing.T) {
	r := NewRateWindow(time.Second, time.Second)
	for i := 0; i < 100; i++ {
		r.Observe(time.Duration(i) * 10 * time.Millisecond)
	}
	// At t=0.99s all 100 observations are within 1s.
	if got := r.Rate(990 * time.Millisecond); math.Abs(got-100) > 1e-9 {
		t.Fatalf("rate = %v, want 100", got)
	}
	// 2 seconds later everything expired.
	if got := r.Count(3 * time.Second); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

// TestRateWindowInnerHead: a rate window with an inner head answers both
// spans as two standalone windows fed the same stream do — the scheduling
// core's 5 s scaling rate and 2 s T_in rate — bit for bit. Each stream runs a
// clock forward and observes events at it or up to 300 ms behind it (so
// Observe clamps), queries either head at the clock between observes, idles
// past a whole span now and then (so a head empties and an event lands
// unclamped behind the last one), and runs long enough to compact many times,
// so the inner head must survive the array sliding under it.
func TestRateWindowInnerHead(t *testing.T) {
	const span, inner = 5 * time.Second, 2 * time.Second
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		merged := NewRateWindow(span, inner)
		outer, fast := NewRateWindow(span, span), NewRateWindow(inner, inner)
		var clock time.Duration
		compactions, last, queries := 0, 0, 0
		for i := 0; i < 30000; i++ {
			switch r := rng.Intn(1000); {
			case r < 2:
				clock += time.Duration(rng.Int63n(int64(2 * span)))
			case r < 500:
				clock += time.Duration(rng.ExpFloat64() * float64(time.Millisecond) / 2)
			}
			at := clock
			if rng.Intn(4) == 0 {
				at -= time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			}
			merged.Observe(at)
			outer.Observe(at)
			fast.Observe(at)
			if merged.head < last {
				compactions++
			}
			last = merged.head
			if rng.Intn(8) != 0 {
				continue
			}
			queries++
			if rng.Intn(2) == 0 {
				if got, want := merged.Rate(clock), outer.Rate(clock); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d, event %d at %v: Rate = %v, a standalone %v window says %v", seed, i, clock, got, span, want)
				}
			} else if got, want := merged.InnerRate(clock), fast.Rate(clock); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, event %d at %v: InnerRate = %v, a standalone %v window says %v", seed, i, clock, got, inner, want)
			}
		}
		t.Logf("seed %d: %d compactions, %d queries", seed, compactions, queries)
		if compactions < 3 || queries == 0 {
			t.Fatalf("seed %d: %d compactions and %d queries; the stream never exercised them", seed, compactions, queries)
		}
	}
}

// TestRateWindowEvictsWhenRead: Observe only appends, evicting when the array
// is full, yet every read answers bit for bit as a window that evicts on
// every Observe, at the instant it records: an eviction at an earlier
// instant is one the read makes anyway. The stream jumps, dawdles and runs
// backwards, and the lazy window compacts under it.
func TestRateWindowEvictsWhenRead(t *testing.T) {
	const span, inner = 5 * time.Second, 2 * time.Second
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, eager := NewRateWindow(span, inner), NewRateWindow(span, inner)
		var clock time.Duration
		compactions, last, queries := 0, 0, 0
		for i := 0; i < 30000; i++ {
			switch r := rng.Intn(1000); {
			case r < 2:
				clock += time.Duration(rng.Int63n(int64(2 * span)))
			case r < 500:
				clock += time.Duration(rng.ExpFloat64() * float64(time.Millisecond) / 2)
			}
			at := clock
			if rng.Intn(4) == 0 {
				at -= time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			}
			lazy.Observe(at)
			eager.Observe(at)
			eager.evict(eager.times[len(eager.times)-1]) // at, as Observe clamped it
			if lazy.head < last {
				compactions++
			}
			last = lazy.head
			if rng.Intn(8) != 0 {
				continue
			}
			queries++
			var got, want float64
			switch rng.Intn(3) {
			case 0:
				got, want = lazy.Rate(clock), eager.Rate(clock)
			case 1:
				got, want = lazy.InnerRate(clock), eager.InnerRate(clock)
			default:
				got, want = float64(lazy.Count(clock)), float64(eager.Count(clock))
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, event %d at %v: the lazy window says %v, the eager one %v", seed, i, clock, got, want)
			}
		}
		if compactions < 3 || queries == 0 {
			t.Fatalf("seed %d: %d compactions and %d queries; the stream never exercised them", seed, compactions, queries)
		}
	}
}

func TestRateWindowRefusesSpans(t *testing.T) {
	for _, c := range [][2]time.Duration{{time.Second, 0}, {time.Second, 2 * time.Second}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRateWindow(%v, %v) did not panic", c[0], c[1])
				}
			}()
			NewRateWindow(c[0], c[1])
		}()
	}
}

func TestEmpiricalQuantileCDF(t *testing.T) {
	d := NewEmpirical([]float64{4, 1, 3, 2, 5})
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := d.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	// Nearest rank inverts the step CDF: F(3) = 0.6, so every q in (0.4, 0.6]
	// maps to 3 and the next step starts just above 0.6.
	for _, c := range []struct{ q, want float64 }{{0.41, 3}, {0.6, 3}, {0.61, 4}, {0.4, 2}} {
		if got := d.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestEmpiricalEmpty(t *testing.T) {
	d := NewEmpirical(nil)
	if d.Quantile(0.5) != 0 || d.Quantile(1) != 0 {
		t.Fatal("empty distribution should return zeros")
	}
	if edges, dens := d.Histogram(4); edges != nil || dens != nil {
		t.Fatal("empty distribution should have no histogram")
	}
}

func TestEmpiricalMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m, s := MeanStd(xs); m != 5 || s != 2 {
		t.Fatalf("mean, std = %v, %v; want 5, 2", m, s)
	}
	if cv := CoefficientOfVariation(xs); math.Abs(cv-0.4) > 1e-12 {
		t.Fatalf("cv = %v, want 0.4", cv)
	}
}

func TestEmpiricalHistogramIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	edges, dens := NewEmpirical(xs).Histogram(20)
	if len(edges) != 20 || len(dens) != 20 {
		t.Fatalf("got %d edges, %d densities", len(edges), len(dens))
	}
	width := edges[1] - edges[0]
	var integral float64
	for _, v := range dens {
		integral += v * width
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("histogram integral = %v, want 1", integral)
	}
}

// TestRingKeepsLastN: after n Adds of 0, 1, …, n−1 a ring of capacity c
// holds exactly the last min(n, c) of them, each once.
func TestRingKeepsLastN(t *testing.T) {
	for _, c := range []int{1, 2, 7, 512} {
		r := NewRing(c)
		for n := 1; n <= 3*c+1; n++ {
			r.Add(float64(n - 1))
			got := slices.Sorted(slices.Values(r.Values()))
			want := make([]float64, 0, c)
			for v := max(0, n-c); v < n; v++ {
				want = append(want, float64(v))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("capacity %d after %d adds: holds %v, want %v", c, n, got, want)
			}
		}
	}
}

func TestConvolveQuantileIrwinHall(t *testing.T) {
	// The analytically known check from Fig. 6: the 0.1-quantile of a sum of
	// j iid U[0,1] is 0.10, 0.447, 0.843, 1.245 for j = 1..4.
	rng := rand.New(rand.NewSource(7))
	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	want := []float64{0.10, 0.447, 0.843, 1.245}
	for j := 1; j <= 4; j++ {
		sources := make([][]float64, j)
		for i := range sources {
			sources[i] = uniform
		}
		got, _ := ConvolveQuantileInto(nil, sources, 0.1, 20000, rng)
		if math.Abs(got-want[j-1]) > 0.05 {
			t.Fatalf("j=%d quantile = %v, want ≈%v", j, got, want[j-1])
		}
	}
}

func TestConvolveQuantileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := [][]float64{{1, 2, 3}}
	for _, c := range []struct {
		name    string
		sources [][]float64
		q, want float64
	}{
		{"q=0", src, 0, 1},
		{"q=1", src, 1, 3},
		{"no sources", nil, 0.5, 0},
		{"empty source skipped", [][]float64{{}, {5}}, 0.5, 5},
	} {
		if got, _ := ConvolveQuantileInto(nil, c.sources, c.q, 100, rng); got != c.want {
			t.Fatalf("%s → %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got := PercentilesInto(nil, slices.Clone(xs), 0.5, 0.9)
	if got[0] != 5 || got[1] != 9 {
		t.Fatalf("percentiles = %v", got)
	}
	if got := PercentilesInto(nil, nil, 0.5); got[0] != 0 {
		t.Fatalf("empty input quantile = %v, want 0", got[0])
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Fatalf("constant cv = %v", cv)
	}
	if cv := CoefficientOfVariation(nil); cv != 0 {
		t.Fatalf("nil cv = %v", cv)
	}
}

// Property: Quantile is monotone in q and inverts CDF within sample
// resolution.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		d := NewEmpirical(raw)
		return d.Quantile(qa) <= d.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the share of samples at or below Quantile(q) — the CDF there —
// is at least q, for all q in (0,1].
func TestPropertyCDFQuantileGalois(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qq := math.Abs(math.Mod(q, 1))
		if qq == 0 {
			qq = 0.5
		}
		x, below := NewEmpirical(raw).Quantile(qq), 0
		for _, v := range raw {
			if v <= x {
				below++
			}
		}
		return float64(below)/float64(len(raw))+1e-12 >= qq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a window's Sum over Len equals the mean of its ValuesInto.
func TestPropertyWindowMeanConsistent(t *testing.T) {
	f := func(vals []uint16) bool {
		w := NewSlidingWindow(time.Hour)
		var now time.Duration
		for _, v := range vals {
			now += time.Millisecond
			w.Add(now, float64(v))
		}
		sum := w.Sum(now)
		vs := w.ValuesInto(now, nil)
		if len(vals) == 0 {
			return sum == 0 && len(vs) == 0
		}
		m, _ := MeanStd(vs)
		return len(vs) == w.Len() && math.Abs(sum/float64(w.Len())-m) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a ring never exceeds its capacity, holds min(adds, capacity)
// values, and its newest value is the last one added.
func TestPropertyRingSize(t *testing.T) {
	f := func(n uint16) bool {
		r := NewRing(50)
		for i := 0; i < int(n); i++ {
			r.Add(float64(i))
			if len(r.Values()) > 50 {
				return false
			}
		}
		vs := r.Values()
		if len(vs) != min(int(n), 50) {
			return false
		}
		return n == 0 || slices.Max(vs) == float64(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveSamplesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := [][]float64{{1, 2}, {10, 20}}
	out := ConvolveSamples(src, 1000, rng)
	if len(out) != 1000 {
		t.Fatalf("len = %d", len(out))
	}
	sort.Float64s(out)
	if out[0] < 11 || out[len(out)-1] > 22 {
		t.Fatalf("range [%v, %v] outside [11, 22]", out[0], out[len(out)-1])
	}
}

func BenchmarkSlidingWindowAddMean(b *testing.B) {
	w := NewSlidingWindow(5 * time.Second)
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Millisecond
		w.Add(now, float64(i%100))
		if i%64 == 0 {
			w.Mean(now)
		}
	}
}

func BenchmarkConvolveQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([][]float64, 4)
	for i := range src {
		s := make([]float64, 1000)
		for j := range s {
			s[j] = rng.Float64()
		}
		src[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveQuantileInto(nil, src, 0.1, 10000, rng)
	}
}
