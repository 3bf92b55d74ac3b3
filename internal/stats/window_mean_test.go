package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refWindow is SlidingWindow as it was before Mean kept running sums: the same
// clamp on Add, the same sticky eviction, and a mean taken sample by sample.
// It shares no code with the window it checks.
type refWindow struct {
	span    time.Duration
	samples []sample
}

func (r *refWindow) evict(now time.Duration) {
	i := 0
	for i < len(r.samples) && r.samples[i].at < now-r.span {
		i++
	}
	r.samples = r.samples[i:]
}

func (r *refWindow) add(now time.Duration, v float64) {
	if n := len(r.samples); n > 0 && now < r.samples[n-1].at {
		now = r.samples[n-1].at
	}
	r.samples = append(r.samples, sample{at: now, v: v})
	r.evict(now)
}

func (r *refWindow) mean(now time.Duration) (float64, bool) {
	r.evict(now)
	var sum, wsum float64
	for _, s := range r.samples {
		age := max(now-s.at, 0)
		weight := 1 - float64(age)/float64(r.span)
		if weight <= 0 {
			continue
		}
		sum += weight * s.v
		wsum += weight
	}
	if wsum == 0 {
		return 0, false
	}
	return sum / wsum, true
}

// checkMean compares the window's Mean with the reference's: the same verdict
// on emptiness, the same bits where the window holds at most one sample or the
// mean is zero, and 1e-9 relative otherwise.
func checkMean(t *testing.T, w *SlidingWindow, ref *refWindow, now time.Duration, what string) {
	t.Helper()
	want, wantOK := ref.mean(now)
	got, ok := w.Mean(now)
	if w.Len() != len(ref.samples) {
		t.Fatalf("%s: window holds %d samples at %v, reference %d", what, w.Len(), now, len(ref.samples))
	}
	if ok != wantOK {
		t.Fatalf("%s: Mean(%v) ok = %t, reference %t (%d samples)", what, now, ok, wantOK, w.Len())
	}
	exact := w.Len() <= 1 || want == 0
	if (exact && got != want) || math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("%s: Mean(%v) = %.17g over %d samples, reference %.17g (exact wanted: %t)", what, now, got, w.Len(), want, exact)
	}
}

// TestSlidingWindowMeanMatchesLoop drives the window and the reference with
// the same random interleaving of Add, Mean, eviction and span changes — bursts at
// one instant, gaps longer than the span, out-of-order adds, runs of zeros,
// queries older than the newest sample and queries with every live sample on
// the window's far edge — and compares every Mean.
func TestSlidingWindowMeanMatchesLoop(t *testing.T) {
	rounds, ops := 200, 3000
	if testing.Short() {
		rounds = 40
	}
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		span := time.Duration(1+rng.Intn(5000)) * time.Millisecond
		w, ref := NewSlidingWindow(span), &refWindow{span: span}
		now := time.Duration(rng.Int63n(int64(72 * time.Hour)))
		zeros := 0 // remaining adds of a run of zero values
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(100); {
			case op < 70: // Add
				switch step := rng.Intn(100); {
				case step < 10: // same instant
				case step < 13:
					now += span + time.Duration(rng.Int63n(int64(span)))
				default:
					now += time.Duration(rng.Int63n(int64(span)/100 + 1))
				}
				at := now
				if rng.Intn(50) == 0 {
					at -= time.Duration(rng.Int63n(int64(span))) // clamped forward
				}
				v := rng.Float64() * 100
				if zeros > 0 {
					zeros, v = zeros-1, 0
				} else if rng.Intn(400) == 0 {
					zeros = 50 + rng.Intn(2000)
				}
				w.Add(at, v)
				ref.add(at, v)
			case op < 90: // Mean at or after the newest sample
				q := now + time.Duration(rng.Int63n(int64(span)/2+1))
				if rng.Intn(20) == 0 && len(ref.samples) > 0 {
					q = ref.samples[len(ref.samples)-1].at + ref.span - time.Duration(rng.Intn(3)) // the far edge
				}
				checkMean(t, w, ref, q, "mean")
				now = max(now, q-span/4)
			case op < 94: // Mean older than the newest sample
				checkMean(t, w, ref, now-time.Duration(rng.Int63n(int64(span))), "stale mean")
			case op < 98:
				q := now + time.Duration(rng.Int63n(int64(span)))
				w.evict(q)
				ref.evict(q)
			default:
				span = time.Duration(1+rng.Intn(5000)) * time.Millisecond
				w.span = span
				ref.span = span
			}
		}
		checkMean(t, w, ref, now, "final mean")
	}
}

// TestSlidingWindowMeanNoDrift: a window that lives for days of virtual time
// and over a million samples still agrees with the sample-by-sample mean to
// 1e-9 — the sums are rebuilt at every compaction and their timestamps are
// taken from a base that moves with the window.
func TestSlidingWindowMeanNoDrift(t *testing.T) {
	adds := 1_200_000
	if testing.Short() {
		adds = 150_000
	}
	rng := rand.New(rand.NewSource(24))
	const span = 5 * time.Second
	w, ref := NewSlidingWindow(span), &refWindow{span: span}
	now := 72 * time.Hour
	for i := 0; i < adds; i++ {
		now += time.Duration(rng.Int63n(int64(500 * time.Millisecond))) // ≈ 20 live samples; 3.5 more days in all
		v := 0.001 + rng.ExpFloat64()*float64(1+i%1000)
		w.Add(now, v)
		ref.add(now, v)
		if i%97 == 0 {
			checkMean(t, w, ref, now+time.Duration(rng.Int63n(int64(time.Second))), "long-lived mean")
		}
	}
}

// TestSlidingWindowMeanBeforeNewest: a query older than the newest sample
// weighs that sample as if it were taken at the query instant.
func TestSlidingWindowMeanBeforeNewest(t *testing.T) {
	w := NewSlidingWindow(10 * time.Second)
	w.Add(2*time.Second, 4)
	w.Add(8*time.Second, 1)
	w.Add(9*time.Second, 7)
	// At t = 6 s: weights 0.6, 1 and 1.
	got, ok := w.Mean(6 * time.Second)
	if want := (0.6*4 + 1 + 7) / 2.6; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean(6s) = %v, %t; want %v", got, ok, want)
	}
	// And the running sums are intact afterwards. At t = 10 s: 0.2, 0.8, 0.9.
	got, ok = w.Mean(10 * time.Second)
	if want := (0.2*4 + 0.8*1 + 0.9*7) / 1.9; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean(10s) = %v, %t; want %v", got, ok, want)
	}
}

// TestSlidingWindowMeanOfZerosIsZero: once every live sample is zero the mean
// is exactly zero — not the ±1e-17 that subtracting the evicted values from a
// running sum leaves, which a table would print as "-0.0".
func TestSlidingWindowMeanOfZerosIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewSlidingWindow(time.Second)
	now := time.Duration(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 12; i++ {
			now += 100 * time.Millisecond
			v := rng.Float64()
			if i >= 8 {
				v = 0
			}
			w.Add(now, v)
		}
		now += 650 * time.Millisecond // the four zeros are what is left
		if got, ok := w.Mean(now); !ok || got != 0 || math.Signbit(got) || w.Len() != 4 {
			t.Fatalf("round %d: Mean of %d zero samples = %v, %t; want exactly 0 of 4", round, w.Len(), got, ok)
		}
	}
}
