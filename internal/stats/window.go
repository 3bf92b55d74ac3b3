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
//
// Mean is O(1). A weight is linear in the sample's timestamp, so the weighted
// sums follow from three running sums over the live samples, kept by Add and
// evict with timestamps taken relative to base:
//
//	Σw   = n  − (n·(now−base)  − Σt)/span
//	Σw·v = Σv − (Σv·(now−base) − Σt·v)/span     t = at − base
//
// The sums are rebuilt from the samples each time evict compacts, so rounding
// error is what some thousand updates accumulate however long the window
// lives, and they are set to zero, not left at what cancellation made of the
// evicted values, whenever no live sample is nonzero: a mean of zeros is zero.
type SlidingWindow struct {
	span    time.Duration
	samples []sample // ring-ish: evicted from the front lazily
	head    int

	base              time.Duration // origin of t: the oldest sample at the last rebuild
	sumV, sumT, sumTV float64       // Σv, Σt, Σt·v over samples[head:]
	nonzero           int           // live samples with v != 0
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
	if n := len(w.samples); n > w.head {
		now = max(now, w.samples[n-1].at)
	}
	w.evict(now)
	if w.head == len(w.samples) {
		w.base, w.sumT = now, 0
	}
	s := sample{at: now, v: v}
	w.samples = append(w.samples, s)
	w.tally(s, 1)
}

// tally adds a live sample to the running sums (sign 1) or takes an evicted
// one out (sign -1).
func (w *SlidingWindow) tally(s sample, sign float64) {
	t := float64(s.at - w.base)
	w.sumT += sign * t
	if s.v != 0 {
		w.nonzero += int(sign)
		w.sumV += sign * s.v
		w.sumTV += sign * t * s.v
	}
}

func (w *SlidingWindow) evict(now time.Duration) {
	cut, from := now-w.span, w.head
	for w.head < len(w.samples) && w.samples[w.head].at < cut {
		w.tally(w.samples[w.head], -1)
		w.head++
	}
	if w.head == from {
		return
	}
	if w.nonzero == 0 {
		w.sumV, w.sumTV = 0, 0
	}
	// Compact when the dead prefix dominates to bound memory: the live tail
	// slides down the same backing array, so a window fed at a steady rate
	// stops allocating once that array holds two spans' worth. The sums are
	// rebuilt on the way, from a base moved up to the oldest live sample.
	if w.head > 1024 && w.head*2 > len(w.samples) {
		w.samples = w.samples[:copy(w.samples, w.samples[w.head:])]
		w.head = 0
		w.sumV, w.sumT, w.sumTV, w.nonzero = 0, 0, 0, 0
		if len(w.samples) > 0 {
			w.base = w.samples[0].at
		}
		for _, s := range w.samples {
			w.tally(s, 1)
		}
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
	n := w.Len()
	if n <= 1 || now < w.samples[len(w.samples)-1].at {
		// Nothing to save on a single sample, and the sums do not know a
		// sample newer than now, whose age the loop clamps to zero.
		return w.meanByLoop(now)
	}
	span, age := float64(w.span), float64(now-w.base)
	wsum := float64(n) - (float64(n)*age-w.sumT)/span
	if wsum < 1e-6*float64(n) {
		// Every live sample sits on the window's far edge: the weights are
		// what is left of a cancellation, so take them one by one.
		return w.meanByLoop(now)
	}
	return (w.sumV - (w.sumV*age-w.sumTV)/span) / wsum, true
}

// meanByLoop is Mean from the samples themselves, in O(live samples).
func (w *SlidingWindow) meanByLoop(now time.Duration) (float64, bool) {
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
