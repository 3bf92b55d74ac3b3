package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},   // Φ(1)
		{0.15865525393145705, -1}, // Φ(-1)
		{0.9772498680518208, 2},   // Φ(2)
		{0.1, -1.2815515655446004},
		{0.9, 1.2815515655446004},
		{0.025, -1.959963984540054},
		{0.975, 1.959963984540054},
		{0.001, -3.090232306167813},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-7 {
			t.Fatalf("Φ⁻¹(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Fatal("p=0 should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("p=1 should be +Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(NormalQuantile(p)) {
			t.Fatalf("p=%v should be NaN", p)
		}
	}
}

// Property: Φ⁻¹ is antisymmetric and strictly increasing.
func TestPropertyNormalQuantileShape(t *testing.T) {
	f := func(raw uint16) bool {
		p := (float64(raw) + 1) / 65538 // strictly inside (0, 1)
		z := NormalQuantile(p)
		zc := NormalQuantile(1 - p)
		if math.Abs(z+zc) > 1e-7 {
			return false
		}
		return NormalQuantile(p+1e-4) >= z || p+1e-4 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformSumQuantileSingleTermExact(t *testing.T) {
	if got := UniformSumQuantile([]float64{10}, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("single-term quantile = %v, want 3", got)
	}
	if got := UniformSumQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestUniformSumQuantileMatchesIrwinHall(t *testing.T) {
	// Fig. 6's worked numbers for equal d=1 at λ=0.1:
	// j=2 → 0.447, j=3 → 0.843, j=4 → 1.245.
	cases := []struct {
		j    int
		want float64
	}{
		{2, 0.447}, {3, 0.843}, {4, 1.245},
	}
	for _, c := range cases {
		ds := make([]float64, c.j)
		for i := range ds {
			ds[i] = 1
		}
		got := UniformSumQuantile(ds, 0.1)
		if math.Abs(got-c.want) > 0.05 {
			t.Fatalf("j=%d: analytic %v, want ≈%v", c.j, got, c.want)
		}
	}
}

func TestUniformSumQuantileMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := []float64{0.03, 0.05, 0.02, 0.04}
	sources := make([][]float64, len(ds))
	for i, d := range ds {
		s := make([]float64, 4000)
		for j := range s {
			s[j] = rng.Float64() * d
		}
		sources[i] = s
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		mc, _ := ConvolveQuantileInto(nil, sources, q, 20000, rng)
		an := UniformSumQuantile(ds, q)
		if math.Abs(mc-an) > 0.01 {
			t.Fatalf("q=%v: MC %v vs analytic %v", q, mc, an)
		}
	}
}

// Property: the quantile is monotone in q and stays inside [0, Σd].
func TestPropertyUniformSumBounds(t *testing.T) {
	f := func(raw []uint8, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]float64, 0, len(raw))
		var sum float64
		for _, r := range raw {
			d := float64(r%100) + 1
			ds = append(ds, d)
			sum += d
		}
		q1 := math.Abs(math.Mod(qa, 1))
		q2 := math.Abs(math.Mod(qb, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		w1, w2 := UniformSumQuantile(ds, q1), UniformSumQuantile(ds, q2)
		return w1 >= 0 && w2 <= sum && w1 <= w2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalQuantile(float64(i%999+1) / 1000)
	}
}

// BenchmarkAnalyticVsMonteCarlo contrasts the closed-form estimator with the
// sampling estimator it replaces.
func BenchmarkAnalyticQuantile(b *testing.B) {
	ds := []float64{0.03, 0.05, 0.02, 0.04}
	for i := 0; i < b.N; i++ {
		UniformSumQuantile(ds, 0.1)
	}
}
