package stats

import (
	"math"
	"math/rand"
	"slices"
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

// burstyFeed returns sorted sample times over spans seconds whose rate swings
// between 500/s and 8000/s from one second to the next, with runs of equal
// timestamps, and a value for each, a quarter of them zero.
func burstyFeed(seed int64, spans int) ([]time.Duration, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var times []time.Duration
	var vals []float64
	at := time.Duration(0)
	for s := 0; s < spans; s++ {
		rate := 500 + rng.Float64()*7500
		for end := time.Duration(s+1) * time.Second; at < end; {
			if rng.Intn(8) != 0 {
				at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			}
			times = append(times, at)
			v := rng.Float64()
			if rng.Intn(4) == 0 {
				v = 0
			}
			vals = append(vals, v)
		}
	}
	return times, vals
}

// TestAllocsWindowsReserved: a window reserved for its stream answers every
// query bit for bit as one that grew, through many compactions, and neither
// Add nor Observe allocates once Reserve has run.
func TestAllocsWindowsReserved(t *testing.T) {
	const span = time.Second
	times, vals := burstyFeed(7, 20)
	peak := PeakCount(times, span)
	reserved := func() (*SlidingWindow, *RateWindow) {
		sw, rw := NewSlidingWindow(span), NewRateWindow(span)
		sw.Reserve(peak, len(times))
		rw.Reserve(peak, len(times))
		return sw, rw
	}

	sw, rw := reserved()
	gsw, grw := NewSlidingWindow(span), NewRateWindow(span)
	var got, want []float64
	compactions, sh, rh := 0, 0, 0
	for i, at := range times {
		if gsw.head < sh {
			compactions++
		}
		if grw.head < rh {
			compactions++
		}
		sh, rh = gsw.head, grw.head
		sw.Add(at, vals[i])
		gsw.Add(at, vals[i])
		rw.Observe(at)
		grw.Observe(at)
		if i%97 != 0 {
			continue
		}
		now := at
		if i%5 == 0 {
			now += span / 3 // past the newest sample
		}
		m, ok := sw.Mean(now)
		gm, gok := gsw.Mean(now)
		if ok != gok || math.Float64bits(m) != math.Float64bits(gm) {
			t.Fatalf("sample %d: reserved Mean = %v, %t; grown %v, %t", i, m, ok, gm, gok)
		}
		if r, gr := rw.Rate(now), grw.Rate(now); math.Float64bits(r) != math.Float64bits(gr) {
			t.Fatalf("sample %d: reserved Rate = %v, grown %v", i, r, gr)
		}
		got, want = sw.ValuesInto(now, got), gsw.ValuesInto(now, want)
		if !slices.Equal(got, want) {
			t.Fatalf("sample %d: reserved window holds %d values, grown %d, or they differ", i, len(got), len(want))
		}
	}
	t.Logf("%d compactions, peak %d, %d samples", compactions, peak, len(times))
	if compactions < 20 {
		t.Fatalf("the feed compacted the grown windows %d times, want many", compactions)
	}

	// Two fresh pairs: AllocsPerRun runs the feed once to warm up.
	pairs := [2]struct {
		sw *SlidingWindow
		rw *RateWindow
	}{}
	for i := range pairs {
		pairs[i].sw, pairs[i].rw = reserved()
	}
	run := 0
	if avg := testing.AllocsPerRun(1, func() {
		p := pairs[run]
		run++
		for i, at := range times {
			p.sw.Add(at, vals[i])
			p.rw.Observe(at)
		}
	}); avg != 0 {
		t.Fatalf("reserved windows allocated %.0f times over %d samples, want 0", avg, len(times))
	}
}

// TestPeakCount: the two-pointer pass agrees with counting every closed
// interval that starts at a sample, duplicates and edges included.
func TestPeakCount(t *testing.T) {
	if got := PeakCount(nil, time.Second); got != 0 {
		t.Fatalf("PeakCount(nil) = %d, want 0", got)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		times := make([]time.Duration, 1+rng.Intn(60))
		for i := range times {
			times[i] = time.Duration(rng.Intn(40)) * 50 * time.Millisecond
		}
		slices.Sort(times)
		span := time.Duration(rng.Intn(12)) * 50 * time.Millisecond
		want := 0
		for i := range times {
			n := 0
			for _, u := range times[i:] {
				if u-times[i] <= span {
					n++
				}
			}
			want = max(want, n)
		}
		if got := PeakCount(times, span); got != want {
			t.Fatalf("PeakCount(%v, %v) = %d, want %d", times, span, got, want)
		}
	}
}
