// Package metrics implements the paper's evaluation metrics (§5.1):
//
//   - Goodput: requests completed within the latency SLO per unit time.
//   - Drop rate: dropped requests / total requests, where a request that
//     finished inference but violated the SLO also counts as dropped.
//   - Invalid rate: GPU time consumed by dropped requests / total GPU time.
//
// A Tally keeps the run-level aggregates in fixed memory, for a server that
// runs for days. The Collector adds, per 250 ms of send time, the requests
// that arrived and were good, and one latency histogram. From the buckets it
// derives exactly the windowed series Figs. 2, 8, 9 and 10 plot: minimum
// normalized goodput across window sizes, maximum average drop rate across
// window sizes, and transient (per-bucket) rates over time. It keeps no
// record per request.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"pard/internal/stats"
	"pard/internal/wire"
)

// Outcome classifies how a request's lifecycle ended.
type Outcome int

// Request outcomes.
const (
	// Good: completed the whole pipeline within the SLO.
	Good Outcome = iota
	// Late: completed the pipeline but missed the SLO (counts as dropped).
	Late
	// DroppedOutcome: explicitly dropped by the policy at some module.
	DroppedOutcome
	// Rejected: refused at the door by the live server's in-flight bound,
	// before entering the pipeline. Counts as bad (the client got no answer)
	// but is kept distinct from policy drops: a rejection consumed no GPU
	// time and no queue slot, and the client was told to retry.
	Rejected
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Good:
		return "good"
	case Late:
		return "late"
	case DroppedOutcome:
		return "dropped"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Record is one request's outcome, as a Tally or a Collector counts it.
type Record struct {
	Send    time.Duration // client send time t_s
	Done    time.Duration // completion or drop time
	Outcome Outcome
	// DropModule is the module that dropped the request, or -1.
	DropModule int
	// GPUTime is the total GPU time charged to this request across all
	// modules it executed in (d(b)/b per batch membership).
	GPUTime time.Duration
}

// Bad reports whether the record counts as dropped for drop-rate purposes.
func (r Record) Bad() bool { return r.Outcome != Good }

// Tally keeps a run's aggregates — counts by outcome, drops by module, GPU
// time, the latest timestamp — in fixed memory: Add is O(1) and keeps no
// record, so a long-running server can account for every request forever.
// Not safe for concurrent use.
type Tally struct{ n tallyCounts }

// tallyCounts are a Tally's aggregates.
type tallyCounts struct {
	Total, Good, Late, Dropped, Rejected int
	GPUTotal, GPUWasted                  time.Duration
	ModuleDrops                          []int // one per module
	End                                  time.Duration
}

// NewTally returns a tally for a pipeline with n modules.
func NewTally(n int) *Tally {
	if n < 1 {
		panic(fmt.Sprintf("metrics: module count must be >=1, got %d", n))
	}
	return &Tally{tallyCounts{ModuleDrops: make([]int, n)}}
}

// Add counts one finished request.
func (t *Tally) Add(r Record) {
	n := &t.n
	n.Total++
	switch r.Outcome {
	case Good:
		n.Good++
	case Late:
		n.Late++
	case DroppedOutcome:
		n.Dropped++
		if r.DropModule >= 0 && r.DropModule < len(n.ModuleDrops) {
			n.ModuleDrops[r.DropModule]++
		}
	case Rejected:
		n.Rejected++
	}
	n.GPUTotal += r.GPUTime
	if r.Bad() {
		n.GPUWasted += r.GPUTime
	}
	n.End = max(n.End, r.Done, r.Send)
}

// End returns the latest timestamp observed.
func (t *Tally) End() time.Duration { return t.n.End }

// WindowBase is the send-time bucket a Collector counts in; a window width
// must be a positive multiple of it. Every width a figure or command uses is
// one: the paper's widths and a quarter of them floored at 2 s, the 5, 10
// and 20 s buckets, and pard-sim's -window.
const WindowBase = 250 * time.Millisecond

// Collector is a Tally that also counts requests per WindowBase of send
// time and keeps one latency histogram, from which it derives windowed
// series and latency quantiles. Its buckets cover [0, End], so its size
// follows a run's length, not its request count. An order-sensitive digest
// of every record it was given makes two collectors fed different records
// encode differently. Not safe for concurrent use.
type Collector struct {
	SLO      time.Duration
	NModules int

	// The rest is unexported: MarshalBinary carries it.
	tally   Tally
	buckets []bucket   // by send time, one per WindowBase up to End
	digest  uint64     // every record, in order
	lat     stats.Hist // Done − Send of every request not dropped
}

// bucket counts the requests sent within one WindowBase; the ones not good
// were bad.
type bucket struct{ Arrived, Good int }

// NewCollector returns a collector for a pipeline with n modules.
func NewCollector(slo time.Duration, n int) *Collector {
	if slo <= 0 {
		panic(fmt.Sprintf("metrics: SLO must be positive, got %v", slo))
	}
	return &Collector{SLO: slo, NModules: n, tally: *NewTally(n), digest: digestBasis}
}

// Reserve sizes the send-time buckets for a run ending within span, so
// such a run's collector allocates them once.
func (c *Collector) Reserve(span time.Duration) {
	if n := int(span/WindowBase) + 1; n > cap(c.buckets) {
		c.buckets = slices.Grow(c.buckets, n-len(c.buckets))
	}
}

// The record digest is FNV-1a's, a field at a time: each step is a
// bijection of the running digest and of the field, so one differing field
// changes the digest.
const digestBasis, digestPrime = 14695981039346656037, 1099511628211

// Add counts one finished request.
func (c *Collector) Add(r Record) {
	c.tally.Add(r)
	for n := int(c.tally.n.End/WindowBase) + 1; len(c.buckets) < n; {
		c.buckets = append(c.buckets, bucket{})
	}
	i := max(0, int(r.Send/WindowBase))
	c.buckets[i].Arrived++
	if r.Outcome == Good {
		c.buckets[i].Good++
	}
	if r.Outcome != DroppedOutcome {
		c.lat.Record(r.Done - r.Send)
	}
	for _, v := range [...]uint64{uint64(r.Send), uint64(r.Done), uint64(r.Outcome), uint64(r.DropModule), uint64(r.GPUTime)} {
		c.digest = (c.digest ^ v) * digestPrime
	}
}

// collectorWire is the Collector's wire form: the tally's counts, the
// send-time buckets, the digest and the histogram's slots. A decoded one is
// checked before it becomes a collector.
type collectorWire struct {
	SLO      time.Duration
	NModules int
	Tally    tallyCounts

	Buckets    []bucket
	Digest     uint64
	Latency    []uint64 // as stats.Hist.Counts returns them
	LatencyMax time.Duration
}

// AppendBinary appends the collector's wire form (collectorWire.append). It
// never fails.
func (c *Collector) AppendBinary(b []byte) ([]byte, error) {
	w := collectorWire{
		SLO: c.SLO, NModules: c.NModules, Tally: c.tally.n,
		Buckets: c.buckets, Digest: c.digest,
		Latency: c.lat.Counts(), LatencyMax: c.lat.Max(),
	}
	return w.append(b), nil
}

// MarshalBinary returns AppendBinary's bytes. encoding/gob calls it too, so
// a gob-encoded result carries the collector in this form.
func (c *Collector) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// UnmarshalBinary restores a collector from exactly MarshalBinary's bytes.
func (c *Collector) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	c.read(&r)
	return r.Done("collector")
}

// ReadCollector decodes a collector from r, failing r on a state no run
// produces.
func ReadCollector(r *wire.Reader) *Collector {
	c := new(Collector)
	if c.read(r); r.Err() != nil {
		return nil
	}
	return c
}

// read decodes into c. The bytes come from a disk cache or a peer, so a
// state Add cannot produce fails r, never leaves a collector that panics
// later.
func (c *Collector) read(r *wire.Reader) {
	var w collectorWire
	if w.read(r); r.Err() != nil {
		return
	}
	err := w.check()
	if err == nil {
		err = c.lat.Restore(w.Latency, w.LatencyMax)
	}
	if t := &w.Tally; err == nil && c.lat.Count() != uint64(t.Total-t.Dropped) {
		err = fmt.Errorf("%d latencies for %d requests not dropped", c.lat.Count(), t.Total-t.Dropped)
	}
	if err != nil {
		r.Fail(fmt.Errorf("metrics: collector: %w", err))
		return
	}
	c.SLO, c.NModules, c.tally = w.SLO, w.NModules, Tally{w.Tally}
	c.buckets, c.digest = w.Buckets, w.Digest
}

// minBucket is a send-time bucket's smallest encoding: two varints.
const minBucket = 2

// append appends w in the codec of package wire:
//
//	SLO | NModules | Total | Good | Late | Dropped | Rejected | GPUTotal |
//	GPUWasted | ModuleDrops | End | buckets (Arrived | Good) | Digest |
//	Latency | LatencyMax
func (w *collectorWire) append(b []byte) []byte {
	t := &w.Tally
	b = binary.AppendVarint(b, int64(w.SLO))
	b = binary.AppendVarint(b, int64(w.NModules))
	for _, v := range [...]int64{int64(t.Total), int64(t.Good), int64(t.Late), int64(t.Dropped), int64(t.Rejected), int64(t.GPUTotal), int64(t.GPUWasted)} {
		b = binary.AppendVarint(b, v)
	}
	b = wire.AppendInts(b, t.ModuleDrops)
	b = binary.AppendVarint(b, int64(t.End))
	b = binary.AppendUvarint(b, uint64(len(w.Buckets)))
	for _, k := range w.Buckets {
		b = binary.AppendVarint(b, int64(k.Arrived))
		b = binary.AppendVarint(b, int64(k.Good))
	}
	b = binary.AppendUvarint(b, w.Digest)
	b = wire.AppendUints(b, w.Latency)
	return binary.AppendVarint(b, int64(w.LatencyMax))
}

// read decodes what append wrote, unchecked.
func (w *collectorWire) read(r *wire.Reader) {
	w.SLO, w.NModules = r.Dur(), wire.Integer[int](r)
	t := &w.Tally
	t.Total, t.Good, t.Late = wire.Integer[int](r), wire.Integer[int](r), wire.Integer[int](r)
	t.Dropped, t.Rejected = wire.Integer[int](r), wire.Integer[int](r)
	t.GPUTotal, t.GPUWasted = r.Dur(), r.Dur()
	t.ModuleDrops = wire.Ints[int](r)
	t.End = r.Dur()
	if n := r.Count(minBucket); n > 0 {
		w.Buckets = make([]bucket, n)
		for i := range w.Buckets {
			w.Buckets[i] = bucket{Arrived: wire.Integer[int](r), Good: wire.Integer[int](r)}
		}
	}
	w.Digest = r.Uint()
	w.Latency = r.Uints()
	w.LatencyMax = r.Dur()
}

// check refuses what no sequence of Adds produces. Buckets must cover
// exactly [0, End], so a window series is never longer than the bytes that
// carried it.
func (w *collectorWire) check() error {
	t := &w.Tally
	spanned := 0 // buckets covering [0, End]; none before the first Add
	if t.Total > 0 && t.End >= 0 {
		spanned = int(t.End/WindowBase) + 1
	}
	switch {
	case w.NModules < 1:
		return fmt.Errorf("module count %d, want >= 1", w.NModules)
	case w.SLO <= 0:
		return fmt.Errorf("SLO %v, want > 0", w.SLO)
	case len(t.ModuleDrops) != w.NModules:
		return fmt.Errorf("%d per-module drop counts for %d modules", len(t.ModuleDrops), w.NModules)
	case t.End < 0 || t.Total == 0 && t.End != 0 || len(w.Buckets) != spanned:
		return fmt.Errorf("%d send-time buckets for a run of %d requests ending at %v", len(w.Buckets), t.Total, t.End)
	case !within(t.Total, t.Good, t.Late, t.Dropped, t.Rejected):
		return fmt.Errorf("outcome counts %d good, %d late, %d dropped, %d rejected exceed %d requests",
			t.Good, t.Late, t.Dropped, t.Rejected, t.Total)
	case !within(t.Dropped, t.ModuleDrops...):
		return fmt.Errorf("per-module drops %v exceed %d drops", t.ModuleDrops, t.Dropped)
	case len(w.Latency) > 0 && w.Latency[len(w.Latency)-1] == 0:
		// Counts ends at the last slot in use; a zero after it would not
		// encode again to the same bytes.
		return fmt.Errorf("%d histogram slots end with an empty one", len(w.Latency))
	}
	arrived, good := t.Total, t.Good
	for _, b := range w.Buckets {
		if !within(b.Arrived, b.Good) || !within(arrived, b.Arrived) || !within(good, b.Good) {
			return fmt.Errorf("send-time buckets count more than %d requests, %d good", t.Total, t.Good)
		}
		arrived, good = arrived-b.Arrived, good-b.Good
	}
	if arrived != 0 || good != 0 {
		return fmt.Errorf("send-time buckets miss %d of %d requests, %d of %d good", arrived, t.Total, good, t.Good)
	}
	return nil
}

// within reports whether whole and parts are non-negative and the parts sum
// to at most whole; each part is taken off what the others leave, so no sum
// overflows.
func within(whole int, parts ...int) bool {
	for _, p := range parts {
		if whole < 0 || p < 0 || p > whole {
			return false
		}
		whole -= p
	}
	return whole >= 0
}

// End returns the latest timestamp observed.
func (c *Collector) End() time.Duration { return c.tally.End() }

// Summary computes the aggregate metrics.
func (c *Collector) Summary() Summary { return c.tally.Summary() }

// Summary is the run-level aggregate.
type Summary struct {
	Total       int
	Good        int
	Late        int
	Dropped     int     // policy drops only (excludes late and rejected)
	Rejected    int     // refused at the in-flight bound, never entered the pipeline
	DropRate    float64 // (dropped + late) / total; rejections tracked separately
	InvalidRate float64 // wasted GPU time / total GPU time
	Goodput     float64 // good per second over the run span
	OfferedRate float64 // total per second over the run span
	// PerModuleDropPct[k] is the percentage of all policy drops that
	// happened at module k (Fig. 2c / Fig. 11b).
	PerModuleDropPct []float64
	GPUTotal         time.Duration
	GPUWasted        time.Duration
}

// Summary computes the aggregate metrics.
func (t *Tally) Summary() Summary {
	n := &t.n
	s := Summary{
		Total:     n.Total,
		Good:      n.Good,
		Late:      n.Late,
		Dropped:   n.Dropped,
		Rejected:  n.Rejected,
		GPUTotal:  n.GPUTotal,
		GPUWasted: n.GPUWasted,
	}
	if s.Total > 0 {
		s.DropRate = float64(n.Dropped+n.Late) / float64(s.Total)
	}
	if n.GPUTotal > 0 {
		s.InvalidRate = float64(n.GPUWasted) / float64(n.GPUTotal)
	}
	if n.End > 0 {
		s.Goodput = float64(n.Good) / n.End.Seconds()
		s.OfferedRate = float64(s.Total) / n.End.Seconds()
	}
	s.PerModuleDropPct = make([]float64, len(n.ModuleDrops))
	if n.Dropped > 0 {
		for k, d := range n.ModuleDrops {
			s.PerModuleDropPct[k] = 100 * float64(d) / float64(n.Dropped)
		}
	}
	return s
}

// WindowPoint aggregates requests *sent* within [Start, Start+Width).
type WindowPoint struct {
	Start   time.Duration
	Arrived int
	Good    int
	Bad     int // dropped + late
}

// NormalizedGoodput returns Good/Arrived, or 1 for an empty window (an idle
// system is not failing anyone).
func (w WindowPoint) NormalizedGoodput() float64 {
	if w.Arrived == 0 {
		return 1
	}
	return float64(w.Good) / float64(w.Arrived)
}

// DropRate returns Bad/Arrived, or 0 for an empty window.
func (w WindowPoint) DropRate() float64 {
	if w.Arrived == 0 {
		return 0
	}
	return float64(w.Bad) / float64(w.Arrived)
}

// Windows buckets requests by send time into consecutive windows of the
// given width covering [0, End]; the width must be a positive multiple of
// WindowBase, or Windows panics.
func (c *Collector) Windows(width time.Duration) []WindowPoint {
	var ws []WindowPoint
	c.eachWindow(width, func(w WindowPoint) { ws = append(ws, w) })
	return ws
}

// eachWindow passes fn the windows Windows returns, in order, folding base
// buckets: ⌊⌊send/base⌋/m⌋ = ⌊send/(m·base)⌋, so every window is exact.
func (c *Collector) eachWindow(width time.Duration, fn func(WindowPoint)) {
	if width <= 0 || width%WindowBase != 0 {
		panic(fmt.Sprintf("metrics: window width must be a positive multiple of %v, got %v", WindowBase, width))
	}
	m, nb := int(width/WindowBase), len(c.buckets)
	for j := 0; j*m < nb; j++ {
		w := WindowPoint{Start: time.Duration(j) * width}
		for _, b := range c.buckets[j*m : min(j*m+m, nb)] {
			w.Arrived += b.Arrived
			w.Good += b.Good
		}
		w.Bad = w.Arrived - w.Good
		fn(w)
	}
}

// MinNormalizedGoodput returns the minimum over windows of the normalized
// goodput; an empty window counts as 1 (Fig. 2a).
func (c *Collector) MinNormalizedGoodput(width time.Duration) float64 {
	min := 1.0
	c.eachWindow(width, func(w WindowPoint) { min = math.Min(min, w.NormalizedGoodput()) })
	return min
}

// DropRateAtMinGoodput returns the drop rate of the first window achieving
// the minimum normalized goodput, or 0 when every window's is 1 (Fig. 2b
// pairs drop rates with Fig. 2a's windows).
func (c *Collector) DropRateAtMinGoodput(width time.Duration) float64 {
	min, rate := 1.0, 0.0
	c.eachWindow(width, func(w WindowPoint) {
		if g := w.NormalizedGoodput(); g < min {
			min, rate = g, w.DropRate()
		}
	})
	return rate
}

// MaxDropRate returns the maximum per-window drop rate (Fig. 9).
func (c *Collector) MaxDropRate(width time.Duration) float64 {
	max := 0.0
	c.eachWindow(width, func(w WindowPoint) { max = math.Max(max, w.DropRate()) })
	return max
}

// GoodputSeries returns (start, normalized goodput) pairs for plotting the
// Fig. 10 timelines.
func (c *Collector) GoodputSeries(width time.Duration) ([]time.Duration, []float64) {
	return c.series(width, WindowPoint.NormalizedGoodput)
}

// DropRateSeries returns (start, drop rate) pairs (Fig. 2d transient drop
// rate).
func (c *Collector) DropRateSeries(width time.Duration) ([]time.Duration, []float64) {
	return c.series(width, WindowPoint.DropRate)
}

func (c *Collector) series(width time.Duration, f func(WindowPoint) float64) (ts []time.Duration, vs []float64) {
	c.eachWindow(width, func(w WindowPoint) {
		ts = append(ts, w.Start)
		vs = append(vs, f(w))
	})
	return ts, vs
}

// LatencyQuantiles returns end-to-end latency quantiles (each q in [0,1])
// over completed requests (every outcome but DroppedOutcome: a drop has no
// meaningful completion latency), read from the latency histogram: each
// within stats.HistRelErr of the order statistic at rank ⌊q·n⌋, and q = 1
// the exact maximum. Returns nil when nothing completed.
func (c *Collector) LatencyQuantiles(qs ...float64) []time.Duration {
	if c.lat.Count() == 0 {
		return nil
	}
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = c.lat.Quantile(q)
	}
	return out
}

// Series is a generic timestamped scalar stream used by simulator probes
// (queueing delay per module, load factor, consumed budget, ...).
type Series struct {
	Name string
	T    []time.Duration
	V    []float64
}

// Add appends one sample; timestamps must be nondecreasing.
func (s *Series) Add(at time.Duration, v float64) {
	if n := len(s.T); n > 0 && at < s.T[n-1] {
		at = s.T[n-1]
	}
	s.T = append(s.T, at)
	s.V = append(s.V, v)
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.T) }

// AppendSeries appends s behind a presence byte (0 for nil): Name | T | V.
func AppendSeries(b []byte, s *Series) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = wire.AppendStr(append(b, 1), s.Name)
	b = wire.AppendInts(b, s.T)
	return wire.AppendFloats(b, s.V)
}

// ReadSeries decodes what AppendSeries wrote. It refuses a series whose
// timestamps and values differ in number, or whose timestamps are negative
// or decrease: Bucketed indexes by them, and Add never records them.
func ReadSeries(r *wire.Reader) *Series {
	if !r.Bool() {
		return nil
	}
	s := &Series{Name: r.Str(), T: wire.Ints[time.Duration](r)}
	s.V = r.Floats(nil)
	if len(s.V) != len(s.T) {
		r.Fail(fmt.Errorf("series %q has %d timestamps for %d values", s.Name, len(s.T), len(s.V)))
	}
	for i, at := range s.T {
		if at < 0 || i > 0 && at < s.T[i-1] {
			r.Fail(fmt.Errorf("series %q: timestamp %d (%v) is negative or before the one ahead of it", s.Name, i, at))
			break
		}
	}
	return s
}

// Bucketed averages the series into consecutive buckets of the given width,
// returning bucket starts and means. Empty buckets carry the previous mean
// (step-hold), matching how the paper plots sparse runtime signals.
func (s *Series) Bucketed(width time.Duration) ([]time.Duration, []float64) {
	if width <= 0 || len(s.T) == 0 {
		return nil, nil
	}
	end := s.T[len(s.T)-1]
	n := int(end/width) + 1
	sums := make([]float64, n)
	counts := make([]int, n)
	for i, at := range s.T {
		b := int(at / width)
		if b >= n {
			b = n - 1
		}
		sums[b] += s.V[i]
		counts[b]++
	}
	ts := make([]time.Duration, n)
	vs := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		ts[i] = time.Duration(i) * width
		if counts[i] > 0 {
			prev = sums[i] / float64(counts[i])
		}
		vs[i] = prev
	}
	return ts, vs
}

// Quantile returns the q-quantile of the series values. The series is
// read-only: values are copied before sorting.
func (s *Series) Quantile(q float64) float64 {
	if len(s.V) == 0 {
		return 0
	}
	cp := append([]float64(nil), s.V...)
	slices.Sort(cp)
	return stats.QuantileSorted(cp, q)
}
