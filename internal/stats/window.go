// Package stats provides the statistical substrate PARD's State Planner is
// built on: time-based sliding windows with linear weighting (§4.2 footnote
// 4), exponential moving averages, empirical distributions with quantile
// inversion, reservoir sampling, and Monte-Carlo convolution of per-module
// batch-wait distributions (the F_{k+1→N} estimator behind w_k).
package stats

import (
	"fmt"
	"time"
)

type sample struct {
	at time.Duration
	v  float64
}

// SlidingWindow keeps timestamped samples inside a fixed horizon and answers
// average queries. Mean applies linear weighting: a sample's weight decays
// linearly from 1 (now) to 0 (window edge), matching the paper's "5s linear
// weighted window" used for recent queueing delay.
type SlidingWindow struct {
	span    time.Duration
	samples []sample // ring-ish: evicted from the front lazily
	head    int
}

// NewSlidingWindow returns a window covering the last span of virtual time.
func NewSlidingWindow(span time.Duration) *SlidingWindow {
	if span <= 0 {
		panic(fmt.Sprintf("stats: window span must be positive, got %v", span))
	}
	return &SlidingWindow{span: span}
}

// Span returns the configured window horizon.
func (w *SlidingWindow) Span() time.Duration { return w.span }

// SetSpan changes the horizon; existing samples are re-evaluated lazily.
func (w *SlidingWindow) SetSpan(span time.Duration) {
	if span <= 0 {
		panic(fmt.Sprintf("stats: window span must be positive, got %v", span))
	}
	w.span = span
}

// Add records value v observed at time now. Timestamps must be nondecreasing;
// out-of-order samples are clamped forward to preserve the eviction
// invariant.
func (w *SlidingWindow) Add(now time.Duration, v float64) {
	if n := len(w.samples); n > w.head && now < w.samples[n-1].at {
		now = w.samples[n-1].at
	}
	w.samples = append(w.samples, sample{at: now, v: v})
	w.evict(now)
}

func (w *SlidingWindow) evict(now time.Duration) {
	cut := now - w.span
	for w.head < len(w.samples) && w.samples[w.head].at < cut {
		w.head++
	}
	// Compact when the dead prefix dominates to bound memory: the live tail
	// slides down the same backing array, so a window fed at a steady rate
	// stops allocating once that array holds two spans' worth.
	if w.head > 1024 && w.head*2 > len(w.samples) {
		w.samples = w.samples[:copy(w.samples, w.samples[w.head:])]
		w.head = 0
	}
}

// Len returns the number of live samples as of the last Add/advance.
func (w *SlidingWindow) Len() int { return len(w.samples) - w.head }

// Advance evicts samples older than now-span without adding a sample.
func (w *SlidingWindow) Advance(now time.Duration) { w.evict(now) }

// Mean returns the linear-weighted mean of samples within the window as of
// time now, and false when the window is empty.
func (w *SlidingWindow) Mean(now time.Duration) (float64, bool) {
	w.evict(now)
	var sum, wsum float64
	for i := w.head; i < len(w.samples); i++ {
		s := w.samples[i]
		age := now - s.at
		if age < 0 {
			age = 0
		}
		weight := 1 - float64(age)/float64(w.span)
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

// UnweightedMean returns the plain average of live samples.
func (w *SlidingWindow) UnweightedMean(now time.Duration) (float64, bool) {
	w.evict(now)
	if w.Len() == 0 {
		return 0, false
	}
	var sum float64
	for i := w.head; i < len(w.samples); i++ {
		sum += w.samples[i].v
	}
	return sum / float64(w.Len()), true
}

// Sum returns the sum of live sample values.
func (w *SlidingWindow) Sum(now time.Duration) float64 {
	w.evict(now)
	var sum float64
	for i := w.head; i < len(w.samples); i++ {
		sum += w.samples[i].v
	}
	return sum
}

// Values copies the live sample values, oldest first.
func (w *SlidingWindow) Values(now time.Duration) []float64 {
	w.evict(now)
	out := make([]float64, 0, w.Len())
	for i := w.head; i < len(w.samples); i++ {
		out = append(out, w.samples[i].v)
	}
	return out
}

// ValuesInto appends the live sample values (oldest first) to buf[:0] and
// returns it, reusing buf's capacity when sufficient. The returned slice is
// owned by the caller; the window keeps no reference to it.
func (w *SlidingWindow) ValuesInto(now time.Duration, buf []float64) []float64 {
	w.evict(now)
	buf = buf[:0]
	for i := w.head; i < len(w.samples); i++ {
		buf = append(buf, w.samples[i].v)
	}
	return buf
}

// RateWindow counts events inside a horizon and reports their arrival rate.
// PARD uses it for the module input workload T_in.
type RateWindow struct {
	span  time.Duration
	times []time.Duration
	head  int
}

// NewRateWindow returns a rate estimator over the last span.
func NewRateWindow(span time.Duration) *RateWindow {
	if span <= 0 {
		panic(fmt.Sprintf("stats: rate window span must be positive, got %v", span))
	}
	return &RateWindow{span: span}
}

// Observe records one event at time now.
func (r *RateWindow) Observe(now time.Duration) {
	if n := len(r.times); n > r.head && now < r.times[n-1] {
		now = r.times[n-1]
	}
	r.times = append(r.times, now)
	r.evict(now)
}

func (r *RateWindow) evict(now time.Duration) {
	cut := now - r.span
	for r.head < len(r.times) && r.times[r.head] < cut {
		r.head++
	}
	if r.head > 4096 && r.head*2 > len(r.times) {
		r.times = r.times[:copy(r.times, r.times[r.head:])] // in place, as in SlidingWindow.evict
		r.head = 0
	}
}

// Count returns the number of events within the window at time now.
func (r *RateWindow) Count(now time.Duration) int {
	r.evict(now)
	return len(r.times) - r.head
}

// Rate returns events per second within the window at time now.
func (r *RateWindow) Rate(now time.Duration) float64 {
	n := r.Count(now)
	return float64(n) / r.span.Seconds()
}

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha must be in (0,1], got %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds v into the average.
func (e *EWMA) Add(v float64) {
	if !e.init {
		e.v, e.init = v, true
		return
	}
	e.v = e.alpha*v + (1-e.alpha)*e.v
}

// Value returns the current average and whether any sample was added.
func (e *EWMA) Value() (float64, bool) { return e.v, e.init }
