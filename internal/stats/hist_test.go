package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.total.Load() != 0 || h.Max() != 0 {
		t.Fatalf("empty hist: count %d max %v", h.total.Load(), h.Max())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

// TestHistQuantileAccuracy records a uniform 1..10000 µs spread and checks
// the estimated quantiles stay within the histogram's ~3% bucket error (plus
// slack for the half-bucket midpoint convention).
func TestHistQuantileAccuracy(t *testing.T) {
	var h Hist
	for us := 1; us <= 10000; us++ {
		h.Record(time.Duration(us) * time.Microsecond)
	}
	if h.total.Load() != 10000 {
		t.Fatalf("count = %d", h.total.Load())
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("max = %v, want exactly 10ms", h.Max())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5000 * time.Microsecond},
		{0.90, 9000 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		rel := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if rel > 0.05 {
			t.Errorf("q%.2f = %v, want ≈%v (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if q := h.Quantile(1); q != h.Max() {
		t.Fatalf("q1 = %v, want max %v", q, h.Max())
	}
}

// TestHistIndexBounds is the property behind the layout: every value inside
// the representable range lands in a slot whose reconstructed lower bound is
// ≤ the value and within 1/32 of it (slot width 2^b over the bucket's
// minimum value 2^(b+5)).
func TestHistIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63n(1 << 37)) // top bucket covers values < 64<<31 = 2^37
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets*histSubs {
			t.Fatalf("v=%d: index %d out of range", v, idx)
		}
		lo := histValue(idx)
		if lo > v {
			t.Fatalf("v=%d: slot lower bound %d exceeds value", v, lo)
		}
		if v >= histSubs && float64(v-lo)/float64(v) > 1.0/32+1e-9 {
			t.Fatalf("v=%d: slot lower bound %d off by more than 1/32", v, lo)
		}
	}
	// Saturation: values beyond the top bucket clamp to the last slot.
	if idx := histIndex(math.MaxUint64); idx != histBuckets*histSubs-1 {
		t.Fatalf("MaxUint64 landed in slot %d", idx)
	}
	var h Hist
	h.Record(-time.Second) // negative clamps to zero
	if h.Quantile(0.5) != 0 {
		t.Fatal("negative record did not clamp to zero")
	}
}

// TestHistConcurrent hammers Record from many goroutines (run under -race)
// and checks nothing is lost.
func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(w)
	}
	wg.Wait()
	if h.total.Load() != workers*per {
		t.Fatalf("count = %d, want %d", h.total.Load(), workers*per)
	}
	if h.Max() >= time.Second || h.Max() <= 0 {
		t.Fatalf("max = %v outside (0, 1s)", h.Max())
	}
}

// TestHistRestore: Counts and Max are the histogram's whole state —
// restoring them reproduces every quantile — and Restore refuses a state no
// sequence of Records leaves.
func TestHistRestore(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		h.Record(time.Duration(rng.ExpFloat64() * float64(300*time.Millisecond)))
	}
	var got Hist
	if err := got.Restore(h.Counts(), h.Max()); err != nil {
		t.Fatal(err)
	}
	if got.Count() != h.Count() || got.Max() != h.Max() {
		t.Fatalf("restored %d values, max %v; want %d, %v", got.Count(), got.Max(), h.Count(), h.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q%v: restored %v, want %v", q, got.Quantile(q), h.Quantile(q))
		}
	}
	var empty Hist
	if err := got.Restore(nil, 0); err != nil || got.Count() != 0 || got.Quantile(0.5) != 0 {
		t.Fatalf("restoring the empty state: %v, %d values", err, got.Count())
	}
	counts := h.Counts()
	for name, tc := range map[string]struct {
		counts []uint64
		max    time.Duration
	}{
		"too many slots":       {make([]uint64, histBuckets*histSubs+1), 0},
		"negative max":         {counts, -time.Second},
		"max below last slot":  {counts, h.Max() / 2},
		"max above last slot":  {counts, 2 * h.Max()},
		"max with no values":   {nil, time.Second},
		"values with zero max": {[]uint64{0, 0, 3}, 0},
	} {
		if err := empty.Restore(tc.counts, tc.max); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}
