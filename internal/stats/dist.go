package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Empirical is an empirical distribution over float64 samples supporting
// quantile queries and histograms. Samples are sorted lazily.
type Empirical struct {
	samples []float64
	sorted  bool
}

// NewEmpirical builds a distribution from a copy of samples.
func NewEmpirical(samples []float64) *Empirical {
	cp := append([]float64(nil), samples...)
	return &Empirical{samples: cp}
}

// Reset reloads the distribution with a copy of samples, reusing the
// internal buffer when it has capacity. The zero value of Empirical is
// usable with Reset, so one long-lived Empirical can serve a loop of
// percentile queries without per-iteration allocation.
func (d *Empirical) Reset(samples []float64) {
	d.samples = append(d.samples[:0], samples...)
	d.sorted = false
}

func (d *Empirical) ensureSorted() {
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) using the nearest-rank
// definition; q outside [0,1] is clamped. Returns 0 for an empty
// distribution.
func (d *Empirical) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[rankIndex(len(d.samples), q)]
}

// Histogram bins the samples into n equal-width buckets over [min, max] and
// returns bucket left edges and normalized densities. Used to render the
// Fig. 6 PDFs.
func (d *Empirical) Histogram(n int) (edges, density []float64) {
	if n <= 0 || len(d.samples) == 0 {
		return nil, nil
	}
	d.ensureSorted()
	lo, hi := d.samples[0], d.samples[len(d.samples)-1]
	if hi == lo {
		return []float64{lo}, []float64{1}
	}
	width := (hi - lo) / float64(n)
	edges = make([]float64, n)
	density = make([]float64, n)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, v := range d.samples {
		i := int((v - lo) / width)
		if i >= n {
			i = n - 1
		}
		density[i]++
	}
	total := float64(len(d.samples)) * width
	for i := range density {
		density[i] /= total
	}
	return edges, density
}

// Ring keeps a stream's last values, at most its capacity: once full, each
// Add overwrites the oldest. PARD's modules keep their batch-wait samples in
// one, so a sample describes recent waits and its upkeep draws nothing.
type Ring struct {
	buf  []float64
	next int // the slot the next Add overwrites once buf is full
}

// NewRings returns n empty rings, each holding at most capacity (> 0)
// values, in one array, their storage allocated at once and carved from
// another, each room capped at its own end: the set costs two allocations.
func NewRings(n, capacity int) []Ring {
	rs := make([]Ring, n)
	store := make([]float64, n*capacity)
	for i := range rs {
		rs[i].buf = store[i*capacity : i*capacity : (i+1)*capacity]
	}
	return rs
}

// Add appends v, overwriting the oldest value once the ring is full.
func (r *Ring) Add(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
}

// Values returns the live internal buffer, NOT a copy, in slot order. The
// contract is strictly read-only: callers must not sort, append to, or
// otherwise mutate the returned slice (in particular, never pass it to
// PercentilesInto), and must copy it before handing it to anything that
// outlives the next Add. NewEmpirical, Empirical.Reset, core.Board.Publish
// and ConvolveQuantileInto/ConvolveSamples (as sources) are safe consumers:
// they copy or only read.
func (r *Ring) Values() []float64 { return r.buf }

// ConvolveQuantileInto estimates the q-quantile of the sum of independent
// draws, one from each source distribution, by Monte-Carlo with m samples.
// This is PARD's F^{-1}_{k+1→N}(λ) estimator for aggregated batch wait: each
// source is a module's observed batch-wait sample set. Empty sources
// contribute 0, and the source slices are read-only.
//
// The sums go into a caller-supplied scratch buffer: scratch is resized
// (reallocating only when capacity is short), filled, and reordered in place —
// the quantile is selected, not sorted out, so the returned scratch holds the
// sums in no particular order. It returns the quantile and the (possibly
// grown) scratch for reuse on the next call. The RNG draws are ConvolveSamples'
// own, so the result is the q-quantile of what ConvolveSamples would return
// from the same rng state.
func ConvolveQuantileInto(scratch []float64, sources [][]float64, q float64, m int, rng *rand.Rand) (float64, []float64) {
	if m <= 0 || len(sources) == 0 {
		return 0, scratch
	}
	sums := convolveInto(scratch, sources, m, rng)
	return SelectQuantile(sums, q), sums
}

// ConvolveSamples draws m Monte-Carlo samples of the sum of one draw per
// source; used to build full aggregated distributions (Fig. 6). The source
// slices are read-only.
func ConvolveSamples(sources [][]float64, m int, rng *rand.Rand) []float64 {
	return convolveInto(nil, sources, m, rng)
}

func convolveInto(scratch []float64, sources [][]float64, m int, rng *rand.Rand) []float64 {
	if m < 0 {
		m = 0
	}
	var sums []float64
	if cap(scratch) >= m {
		sums = scratch[:m]
	} else {
		sums = make([]float64, m)
	}
	clear(sums)
	for _, src := range sources {
		AddDraws(sums, src, rng)
	}
	return sums
}

// AddDraws adds one uniform draw from src to each of sums, in order: one
// Monte-Carlo convolution step. An empty src adds nothing and draws nothing;
// src is read-only.
func AddDraws(sums, src []float64, rng *rand.Rand) {
	if len(src) == 0 {
		return
	}
	for i := range sums {
		sums[i] += src[rng.Intn(len(src))]
	}
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// CoefficientOfVariation returns std/mean of xs, or 0 for mean 0.
func CoefficientOfVariation(xs []float64) float64 {
	m, s := MeanStd(xs)
	if m == 0 {
		return 0
	}
	return s / m
}

// PercentilesInto evaluates the given quantiles over xs, REORDERING xs IN
// PLACE, and appends the results to dst (which may be nil). Use it on
// buffers the caller owns outright — never on live Ring.Values slices
// or cached result slices shared with other readers. A single quantile — the
// State Planner's one p95 per module per sync — is selected in linear time
// and leaves xs partitioned around it, not sorted; several quantiles sort xs
// once. Either way each result is the element an ascending sort puts at the
// quantile's rank. Quantile semantics match Empirical.Quantile (nearest rank,
// clamped, 0 when xs is empty).
func PercentilesInto(dst []float64, xs []float64, qs ...float64) []float64 {
	if len(qs) == 1 {
		return append(dst, SelectQuantile(xs, qs[0]))
	}
	slices.Sort(xs)
	for _, q := range qs {
		dst = append(dst, QuantileSorted(xs, q))
	}
	return dst
}

// QuantileSorted returns the nearest-rank q-quantile of an ascending-sorted
// slice, clamping q to [0,1]; it returns 0 when xs is empty.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rankIndex(len(xs), q)]
}

// rankIndex is the nearest-rank definition every quantile in this package
// shares: the 0-based index, in ascending order, of the q-quantile of n > 0
// samples, with q clamped to [0,1].
func rankIndex(n int, q float64) int {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n - 1
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// SelectQuantile returns the nearest-rank q-quantile of xs (0 when empty),
// reordering xs in place: in linear time, xs is left partitioned around it.
func SelectQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := rankIndex(len(xs), q)
	selectNth(xs, k)
	return xs[k]
}

// selectNth reorders xs so that xs[k] is the element slices.Sort would put
// there (the same order, NaNs first), nothing before it is greater and
// nothing after it smaller: quickselect, on a sampled pivot while the range
// in play is long (floydRivestStep) and on a median-of-three pivot after.
// Once the range is short, or an unlucky input has used up 2·log2(n)
// partitions, that range is sorted, so the worst case is the sort's. NaNs
// are gathered at the front first, so the partitions compare numbers with a
// plain <.
func selectNth(xs []float64, k int) {
	nans := 0
	for i, v := range xs {
		if v != v {
			xs[i], xs[nans] = xs[nans], v
			nans++
		}
	}
	if k < nans {
		return
	}
	xs, k = xs[nans:], k-nans
	lo, hi := 0, len(xs) // xs[k] lies in xs[lo:hi]
	budget := 2 * bits.Len(uint(len(xs)))
	for ; hi-lo > floydRivestMin && budget > 0; budget-- {
		lo, hi = floydRivestStep(xs, lo, hi, k)
	}
	for ; hi-lo > 12 && budget > 0; budget-- {
		// Order first, middle and last; the outer two then bound the scans.
		mid, last := lo+(hi-lo)/2, hi-1
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[last] < xs[mid] {
			xs[last], xs[mid] = xs[mid], xs[last]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		i, j := lo, last
		for {
			for i++; xs[i] < p; i++ {
			}
			for j--; p < xs[j]; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		// xs[lo:i] <= p <= xs[j+1:hi], and anything between j and i equals p.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(xs[lo:hi])
}

// floydRivestMin is the range beyond which selectNth takes its pivot from a
// sample (Floyd and Rivest, 1975): below it, median-of-three is cheaper.
const floydRivestMin = 600

// floydRivestStep narrows xs[lo:hi], a NaN-free range holding rank k, around
// a pivot at about rank k: it first selects rank k within a window of about
// n^(2/3) elements around k (whose order is as good as a random sample's
// for a range quickselect has not touched), then partitions the range
// around the element that lands at k and returns the part still holding
// rank k, empty when the pivot is it. Since the pivot sits near k, one pass
// leaves a short range, and the pass's branches are mostly predictable:
// for λ = 0.1 nine elements in ten fall on the same side.
func floydRivestStep(xs []float64, lo, hi, k int) (int, int) {
	n, i := float64(hi-lo), float64(k-lo+1)
	z := math.Log(n)
	s := 0.5 * math.Exp(2*z/3)
	sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
	if i < n/2 {
		sd = -sd
	}
	wlo := min(max(lo, int(float64(k)-i*s/n+sd)), k)
	whi := max(min(hi, int(float64(k)+(n-i)*s/n+sd)+1), k+1)
	selectNth(xs[wlo:whi], k-wlo)
	// Partition xs[lo:hi] around t = xs[k] (Hoare's scheme with the two
	// ends as sentinels), leaving t at j.
	left, right := lo, hi-1
	t := xs[k]
	xs[left], xs[k] = xs[k], xs[left]
	if xs[right] > t {
		xs[right], xs[left] = xs[left], xs[right]
	}
	a, j := left, right
	for a < j {
		xs[a], xs[j] = xs[j], xs[a]
		a++
		j--
		for xs[a] < t {
			a++
		}
		for xs[j] > t {
			j--
		}
	}
	if xs[left] == t {
		xs[left], xs[j] = xs[j], xs[left]
	} else {
		j++
		xs[j], xs[right] = xs[right], xs[j]
	}
	// xs[lo:j] <= t = xs[j] <= xs[j+1:hi].
	switch {
	case k < j:
		return lo, j
	case k > j:
		return j + 1, hi
	default:
		return k, k
	}
}
