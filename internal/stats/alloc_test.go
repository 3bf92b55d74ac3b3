package stats

import (
	"math/rand"
	"testing"
	"time"
)

// These tests pin the in-place percentile/convolution variants: with reused
// scratch, the estimator and metrics hot paths allocate nothing per call.

// TestAllocsPercentilesInto: window extraction plus percentile computation
// through reused buffers is allocation-free.
func TestAllocsPercentilesInto(t *testing.T) {
	w := NewSlidingWindow(5 * time.Second)
	for i := 0; i < 256; i++ {
		w.Add(time.Duration(i)*20*time.Millisecond, float64(i%37))
	}
	now := 255 * 20 * time.Millisecond
	qs := []float64{0.5, 0.95}
	var vals, pcts []float64
	vals = w.ValuesInto(now, vals)
	pcts = PercentilesInto(pcts[:0], vals, qs...)

	avg := testing.AllocsPerRun(100, func() {
		vals = w.ValuesInto(now, vals)
		pcts = PercentilesInto(pcts[:0], vals, qs...)
	})
	if avg != 0 {
		t.Fatalf("window percentile path allocates %.1f per call, want 0", avg)
	}
	if len(pcts) != 2 {
		t.Fatalf("lost results: %v", pcts)
	}
}

// TestAllocsSelectP95: the State Planner's call — one quantile over a window
// copy — selects in place and allocates nothing.
func TestAllocsSelectP95(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewSlidingWindow(5 * time.Second)
	for i := 0; i < 4096; i++ {
		w.Add(time.Duration(i)*time.Millisecond, rng.Float64())
	}
	now := 4095 * time.Millisecond
	var vals, pcts []float64
	vals = w.ValuesInto(now, vals)
	pcts = PercentilesInto(pcts[:0], vals, 0.95)
	if avg := testing.AllocsPerRun(100, func() {
		vals = w.ValuesInto(now, vals)
		pcts = PercentilesInto(pcts[:0], vals, 0.95)
	}); avg != 0 {
		t.Fatalf("single-quantile window path allocates %.1f per call, want 0", avg)
	}
}

// TestAllocsWindowsSteadyFeed: windows compact in place, so what a steadily
// fed window allocates is the handful of doublings that take its array to
// two spans' worth — not one fresh array per compaction, which over twenty
// spans at this rate was about forty. Mean reads the window's running sums
// and allocates nothing at all.
func TestAllocsWindowsSteadyFeed(t *testing.T) {
	const span, perSpan, spans = time.Second, 10000, 20
	sw, rw := NewSlidingWindow(span), NewRateWindow(span)
	at := time.Duration(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			at += span / perSpan
			sw.Add(at, 1)
			rw.Observe(at)
			if m, ok := sw.Mean(at); !ok || m != 1 {
				t.Fatalf("Mean of %d ones = %v, %t", sw.Len(), m, ok)
			}
		}
	}
	feed(3 * perSpan) // reach the steady array size
	if avg := testing.AllocsPerRun(1, func() { feed((spans - 3) * perSpan) }); avg != 0 {
		t.Fatalf("windows fed at a steady rate allocated %.0f times after warm-up, want 0", avg)
	}
	if sw.Len() != perSpan+1 || rw.Count(at) != perSpan+1 {
		t.Fatalf("windows hold %d and %d samples, want %d", sw.Len(), rw.Count(at), perSpan+1)
	}
}

// TestAllocsConvolveInto: Monte-Carlo convolution through a reused sum
// scratch is allocation-free.
func TestAllocsConvolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := [][]float64{{0.01, 0.02, 0.03}, {0.05, 0.04}, {0.002}}
	var scratch []float64
	_, scratch = ConvolveQuantileInto(scratch, src, 0.9, 2000, rng)

	avg := testing.AllocsPerRun(20, func() {
		_, scratch = ConvolveQuantileInto(scratch, src, 0.9, 2000, rng)
	})
	if avg != 0 {
		t.Fatalf("ConvolveQuantileInto allocates %.1f per call, want 0", avg)
	}
}
