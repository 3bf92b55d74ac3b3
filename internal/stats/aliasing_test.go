package stats

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The tests in this file pin the package's aliasing contracts: which APIs
// return live internal buffers, which reorder their inputs in place, and which
// are guaranteed read-only. Call sites across sched/metrics/experiments rely
// on these distinctions to share cached slices safely.

func TestRingValuesIsLiveBuffer(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		r.Add(float64(i))
	}
	vs := r.Values()
	if len(vs) != 4 {
		t.Fatalf("len = %d", len(vs))
	}
	// The contract is "live buffer, read-only": the same backing array keeps
	// receiving the new values on subsequent Adds, so a caller that held on
	// to the slice observes them. This is intentional — publication paths
	// must copy (and do: core.Board.Publish copies the samples module.publish
	// hands it into the board's own storage).
	r.Add(100)
	if !slices.Contains(vs, 100) {
		t.Fatalf("an Add to a full ring is not visible through the slice Values returned before it: %v", vs)
	}
	if now := r.Values(); &now[0] != &vs[0] {
		t.Fatal("Values returned a new array after an Add to a full ring")
	}
}

func TestPercentilesIntoSortsInPlace(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got := PercentilesInto(nil, xs, 0, 0.5, 1)
	if !slices.IsSorted(xs) {
		t.Fatalf("PercentilesInto left input unsorted: %v (with several quantiles the documented contract is an in-place sort; one quantile only reorders, see TestSelectionMatchesSort)", xs)
	}
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("quantiles = %v", got)
	}
	// Append semantics: results are appended to dst.
	got2 := PercentilesInto([]float64{-1}, xs, 0.5)
	if len(got2) != 2 || got2[0] != -1 || got2[1] != 3 {
		t.Fatalf("append semantics broken: %v", got2)
	}
}

func TestConvolveDoesNotMutateSources(t *testing.T) {
	src := [][]float64{{3, 1, 2}, {9, 7, 8}}
	orig := [][]float64{append([]float64(nil), src[0]...), append([]float64(nil), src[1]...)}
	rng := rand.New(rand.NewSource(3))
	ConvolveSamples(src, 100, rng)
	ConvolveQuantileInto(nil, src, 0.5, 100, rng)
	for i := range src {
		if !slices.Equal(src[i], orig[i]) {
			t.Fatalf("source %d mutated: %v", i, src[i])
		}
	}
}

// TestConvolveIntoMatchesConvolve: from the same rng state, the quantile
// ConvolveQuantileInto selects is the one the sorted ConvolveSamples output
// holds at that rank, whatever a reused scratch held before.
func TestConvolveIntoMatchesConvolve(t *testing.T) {
	src := [][]float64{{0.1, 0.2, 0.3}, nil, {0.5}, {0.05, 0.15}}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		a := rand.New(rand.NewSource(11))
		b := rand.New(rand.NewSource(11))
		sums := ConvolveSamples(src, 500, a)
		slices.Sort(sums)
		// Warm the scratch with garbage first to prove it is fully reset.
		scratch := make([]float64, 2, 600)
		scratch[0], scratch[1] = 1e9, -1e9
		got, _ := ConvolveQuantileInto(scratch, src, q, 500, b)
		if want := QuantileSorted(sums, q); got != want {
			t.Fatalf("q=%v: Into %v != sorted samples %v (RNG draw order must be identical)", q, got, want)
		}
	}
}

func TestEmpiricalCopiesItsInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	d := NewEmpirical(xs)
	xs[0] = -100
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("NewEmpirical aliased its input: min = %v", q)
	}
	ys := []float64{3, 1, 2}
	var e Empirical
	e.Reset(ys)
	ys[0] = 1e9
	if q := e.Quantile(1); q != 3 {
		t.Fatalf("Reset aliased its input: max = %v", q)
	}
	// Reset reuses the internal buffer across calls.
	e.Reset([]float64{9})
	if len(e.samples) != 1 || e.Quantile(0.5) != 9 {
		t.Fatalf("Reset did not reload: len=%d", len(e.samples))
	}
}

func TestSlidingWindowValuesIntoMatchesValues(t *testing.T) {
	w := NewSlidingWindow(5 * time.Second)
	for i := 0; i < 20; i++ {
		w.Add(time.Duration(i)*time.Second, float64(i))
	}
	now := 19 * time.Second
	want := []float64{14, 15, 16, 17, 18, 19} // the window's live values, oldest first
	buf := make([]float64, 3, 64)
	got := w.ValuesInto(now, buf)
	if !slices.Equal(got, want) {
		t.Fatalf("ValuesInto %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("ValuesInto did not reuse the provided buffer capacity")
	}
}
