// Package stats provides the statistical substrate PARD's State Planner is
// built on: time-based sliding windows with linear weighting (§4.2 footnote
// 4), empirical distributions with quantile inversion, a ring of a stream's
// last values, and Monte-Carlo convolution of per-module batch-wait
// distributions (the F_{k+1→N} estimator behind w_k).
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
	w := new(SlidingWindow)
	w.Init(span)
	return w
}

// Init makes w an empty window covering the last span, in place: the form
// for windows kept by value in their owner's array.
func (w *SlidingWindow) Init(span time.Duration) {
	if span <= 0 {
		panic(fmt.Sprintf("stats: window span must be positive, got %v", span))
	}
	*w = SlidingWindow{span: span}
}

// Span returns the window's horizon.
func (w *SlidingWindow) Span() time.Duration { return w.span }

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
	if w.samples == nil {
		// Room for a window fed once per sync tick (the priority controller's
		// hold a handful of samples), so it does not grow 1, 2, 4, 8 on the
		// tick path.
		w.samples = make([]sample, 0, 16)
	}
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

// Reserve sizes the window's storage for a stream that keeps at most peak
// samples live at once and adds at most total in all, so that Add never
// grows it. It changes storage only: compaction keys on the dead prefix, not
// on capacity, so every answer stays bit-identical.
func (w *SlidingWindow) Reserve(peak, total int) {
	s := NewWindowSlab(1, 0, peak, total)
	w.ReserveFrom(&s)
}

// ReserveFrom is Reserve with the window's array carved from the next of the
// slab's rooms for sliding windows. A window already holding that much room
// leaves the room unused.
func (w *SlidingWindow) ReserveFrom(s *WindowSlab) {
	n := s.slidingRoom
	room := s.samples[:0:n]
	s.samples = s.samples[n:]
	if n > cap(w.samples) {
		w.samples = append(room, w.samples...)
	}
}

// WindowSlab is storage for the arrays of a set of windows reserved alike,
// such as the windows of a cluster's modules or of a policy's priority
// controllers: one array per kind of window, cut into rooms of one
// reservation each, so the set costs one allocation per kind however many
// windows it holds. Each ReserveFrom takes the next room; a room is capped at
// its own end, so a window that outgrows it moves onto an array of its own
// and never writes into a neighbour's.
type WindowSlab struct {
	samples               []sample        // rooms of sliding windows
	times                 []time.Duration // rooms of rate windows
	slidingRoom, rateRoom int
}

// NewWindowSlab returns rooms for sliding SlidingWindows and rate RateWindows,
// each as large as Reserve(peak, total) makes a window's array.
func NewWindowSlab(sliding, rate, peak, total int) WindowSlab {
	s := WindowSlab{
		slidingRoom: reservation(peak, total, slidingCompactAfter),
		rateRoom:    reservation(peak, total, rateCompactAfter),
	}
	if sliding > 0 {
		s.samples = make([]sample, sliding*s.slidingRoom)
	}
	if rate > 0 {
		s.times = make([]time.Duration, rate*s.rateRoom)
	}
	return s
}

// reservation is Reserve's capacity for a window that compacts once its dead
// prefix is longer than both compactAfter and the live tail. Its array then
// never holds more than peak + max(peak, compactAfter) + 1 samples; two
// peaks plus the threshold leave slack for a stream that bunches past the
// peak it was sized for, and a stream shorter than that fits whole.
func reservation(peak, total, compactAfter int) int {
	return min(2*peak+compactAfter, total)
}

// slidingCompactAfter and rateCompactAfter are the dead-prefix lengths past
// which the windows compact.
const (
	slidingCompactAfter = 1024
	rateCompactAfter    = 4096
)

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
	if w.head > slidingCompactAfter && w.head*2 > len(w.samples) {
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

// Len returns the number of live samples as of the last Add or query.
func (w *SlidingWindow) Len() int { return len(w.samples) - w.head }

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

// Sum returns the sum of live sample values.
func (w *SlidingWindow) Sum(now time.Duration) float64 {
	w.evict(now)
	var sum float64
	for i := w.head; i < len(w.samples); i++ {
		sum += w.samples[i].v
	}
	return sum
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

// RateWindow counts events inside a horizon and reports their arrival rate,
// over its span and, from the same timestamps, over a second, shorter inner
// span: one array and two heads, so a stream that needs a smooth and a fast
// rate pays for one Observe. PARD reads the span for the scaling engine and
// the inner span for the module input workload T_in.
//
// Every read evicts both heads, so each answers as a window of its own span
// fed the same stream would, provided the calls come at nondecreasing
// instants: an eviction made at an earlier instant is one a later read makes
// anyway. Observe therefore only appends, and evicts only when the array is
// full, to make room: a stream observed on every arrival and read once per
// sync tick pays for its evictions once per read, not once per event.
type RateWindow struct {
	span, inner time.Duration
	times       []time.Duration
	head        int // first live event over span
	innerHead   int // first live event over inner; never below head
}

// Init makes r an empty rate estimator over the last span whose inner head
// counts the last inner of the same events (inner = span gives one window),
// in place, as SlidingWindow.Init does.
func (r *RateWindow) Init(span, inner time.Duration) {
	if inner <= 0 || inner > span {
		panic(fmt.Sprintf("stats: rate window spans must satisfy 0 < inner <= span, got %v and %v", inner, span))
	}
	*r = RateWindow{span: span, inner: inner}
}

// Observe records one event at time now.
func (r *RateWindow) Observe(now time.Duration) {
	n := len(r.times)
	if n > r.head && now < r.times[n-1] {
		now = r.times[n-1]
	}
	if n == cap(r.times) {
		r.evict(now) // compacts in place when enough of the array is dead
	}
	r.times = append(r.times, now)
}

// Reserve sizes the window's storage as SlidingWindow.Reserve does, for a
// stream that keeps at most peak events live at once over span and observes
// at most total in all.
func (r *RateWindow) Reserve(peak, total int) {
	s := NewWindowSlab(0, 1, peak, total)
	r.ReserveFrom(&s)
}

// ReserveFrom is Reserve with the window's array carved from the next of the
// slab's rooms for rate windows, as SlidingWindow.ReserveFrom carves.
func (r *RateWindow) ReserveFrom(s *WindowSlab) {
	n := s.rateRoom
	room := s.times[:0:n]
	s.times = s.times[n:]
	if n > cap(r.times) {
		r.times = append(room, r.times...)
	}
}

func (r *RateWindow) evict(now time.Duration) {
	for cut := now - r.span; r.head < len(r.times) && r.times[r.head] < cut; {
		r.head++
	}
	r.innerHead = max(r.innerHead, r.head) // a call at an earlier instant must not leave it behind
	for cut := now - r.inner; r.innerHead < len(r.times) && r.times[r.innerHead] < cut; {
		r.innerHead++
	}
	if r.head > rateCompactAfter && r.head*2 > len(r.times) {
		r.times = r.times[:copy(r.times, r.times[r.head:])] // in place, as in SlidingWindow.evict
		r.innerHead -= r.head
		r.head = 0
	}
}

// Count returns the number of events within span at time now.
func (r *RateWindow) Count(now time.Duration) int {
	r.evict(now)
	return len(r.times) - r.head
}

// Rate returns events per second within span at time now.
func (r *RateWindow) Rate(now time.Duration) float64 {
	return float64(r.Count(now)) / r.span.Seconds()
}

// InnerRate returns events per second within the inner span at time now.
func (r *RateWindow) InnerRate(now time.Duration) float64 {
	r.evict(now)
	return float64(len(r.times)-r.innerHead) / r.inner.Seconds()
}

// PeakCount returns the most of the sorted times that fall within one closed
// interval of length span: the most samples a window of that span, fed at
// those times, holds live at once. One pass, two pointers.
func PeakCount(sorted []time.Duration, span time.Duration) int {
	peak, lo := 0, 0
	for hi, t := range sorted {
		for sorted[lo] < t-span {
			lo++
		}
		peak = max(peak, hi-lo+1)
	}
	return peak
}
