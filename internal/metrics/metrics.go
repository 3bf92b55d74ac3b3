// Package metrics implements the paper's evaluation metrics (§5.1):
//
//   - Goodput: requests completed within the latency SLO per unit time.
//   - Drop rate: dropped requests / total requests, where a request that
//     finished inference but violated the SLO also counts as dropped.
//   - Invalid rate: GPU time consumed by dropped requests / total GPU time.
//
// The Collector stores one record per request and derives windowed series
// post-hoc, which is what Figs. 2, 8, 9 and 10 plot: minimum normalized
// goodput across window sizes, maximum average drop rate across window
// sizes, and transient (per-bucket) rates over time. A Tally keeps only the
// run-level aggregates, in fixed memory, for a server that runs for days.
package metrics

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"time"

	"pard/internal/stats"
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

// Record is the per-request outcome stored by the Collector.
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
type Tally struct {
	total, good, late, dropped, rejected int
	gpuTotal, gpuWasted                  time.Duration
	perModuleDrops                       []int // one per module
	end                                  time.Duration
}

// NewTally returns a tally for a pipeline with n modules.
func NewTally(n int) *Tally {
	if n < 1 {
		panic(fmt.Sprintf("metrics: module count must be >=1, got %d", n))
	}
	return &Tally{perModuleDrops: make([]int, n)}
}

// Add counts one finished request.
func (t *Tally) Add(r Record) {
	t.total++
	switch r.Outcome {
	case Good:
		t.good++
	case Late:
		t.late++
	case DroppedOutcome:
		t.dropped++
		if r.DropModule >= 0 && r.DropModule < len(t.perModuleDrops) {
			t.perModuleDrops[r.DropModule]++
		}
	case Rejected:
		t.rejected++
	}
	t.gpuTotal += r.GPUTime
	if r.Bad() {
		t.gpuWasted += r.GPUTime
	}
	if r.Done > t.end {
		t.end = r.Done
	}
	if r.Send > t.end {
		t.end = r.Send
	}
}

// End returns the latest timestamp observed.
func (t *Tally) End() time.Duration { return t.end }

// Collector is a Tally that also keeps every record, from which it derives
// windowed series and latency quantiles. It reuses internal scratch buffers
// across derived-metric calls (windows, latency quantiles), so a Collector is
// NOT safe for concurrent use; the sweep engine only ever finalizes a
// collector from a single goroutine.
type Collector struct {
	SLO      time.Duration
	NModules int

	// tally stays unexported: gob puts even a GobEncoder's exported fields'
	// types on the wire, and the disk cache's bytes are pinned.
	tally   Tally
	records []Record

	// finalization scratch, reused across calls (never serialized; the gob
	// format is pinned by collectorWire)
	winScratch []WindowPoint
	latScratch []float64
}

// NewCollector returns a collector for a pipeline with n modules.
func NewCollector(slo time.Duration, n int) *Collector {
	if slo <= 0 {
		panic(fmt.Sprintf("metrics: SLO must be positive, got %v", slo))
	}
	return &Collector{SLO: slo, NModules: n, tally: *NewTally(n)}
}

// Grow pre-sizes the record buffer for at least n additional records,
// turning the append growth chain in a large run into one allocation.
func (c *Collector) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(c.records) - len(c.records); free < n {
		grown := make([]Record, len(c.records), len(c.records)+n)
		copy(grown, c.records)
		c.records = grown
	}
}

// Add records one finished request.
func (c *Collector) Add(r Record) {
	c.tally.Add(r)
	c.records = append(c.records, r)
}

// collectorWire is the Collector's serialized form: the raw records plus
// the constructor inputs; aggregates are rebuilt on decode.
type collectorWire struct {
	SLO      time.Duration
	NModules int
	Records  []Record
}

// GobEncode serializes the collector (sweep's on-disk run cache persists
// whole simulation results).
func (c *Collector) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(collectorWire{
		SLO: c.SLO, NModules: c.NModules, Records: c.records,
	})
	return buf.Bytes(), err
}

// GobDecode rebuilds the collector by replaying the serialized records, so
// the incremental aggregates are always consistent with them.
func (c *Collector) GobDecode(data []byte) error {
	var w collectorWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*c = *NewCollector(w.SLO, w.NModules)
	c.Grow(len(w.Records))
	for _, r := range w.Records {
		c.Add(r)
	}
	return nil
}

// Len returns the number of recorded requests.
func (c *Collector) Len() int { return len(c.records) }

// Records returns the raw records (callers must not mutate).
func (c *Collector) Records() []Record { return c.records }

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
	s := Summary{
		Total:     t.total,
		Good:      t.good,
		Late:      t.late,
		Dropped:   t.dropped,
		Rejected:  t.rejected,
		GPUTotal:  t.gpuTotal,
		GPUWasted: t.gpuWasted,
	}
	if s.Total > 0 {
		s.DropRate = float64(t.dropped+t.late) / float64(s.Total)
	}
	if t.gpuTotal > 0 {
		s.InvalidRate = float64(t.gpuWasted) / float64(t.gpuTotal)
	}
	if t.end > 0 {
		s.Goodput = float64(t.good) / t.end.Seconds()
		s.OfferedRate = float64(s.Total) / t.end.Seconds()
	}
	s.PerModuleDropPct = make([]float64, len(t.perModuleDrops))
	if t.dropped > 0 {
		for k, n := range t.perModuleDrops {
			s.PerModuleDropPct[k] = 100 * float64(n) / float64(t.dropped)
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
// given width covering [0, End]. The returned slice is freshly allocated and
// owned by the caller; internal metric derivations use windowsInto instead.
func (c *Collector) Windows(width time.Duration) []WindowPoint {
	return c.windowsInto(nil, width)
}

// windows returns the bucketing for width via the collector's reusable
// scratch. The result aliases c.winScratch and is valid until the next
// windows/Windows call on this collector.
func (c *Collector) windows(width time.Duration) []WindowPoint {
	c.winScratch = c.windowsInto(c.winScratch, width)
	return c.winScratch
}

// windowsInto is Windows writing into a caller-supplied buffer (grown only
// when capacity is short), so the repeated per-width sweeps behind Figs. 2
// and 8-10 don't materialize a fresh []WindowPoint per width.
func (c *Collector) windowsInto(buf []WindowPoint, width time.Duration) []WindowPoint {
	if width <= 0 {
		panic(fmt.Sprintf("metrics: window width must be positive, got %v", width))
	}
	if len(c.records) == 0 {
		return nil
	}
	n := int(c.tally.end/width) + 1
	var out []WindowPoint
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]WindowPoint, n)
	}
	for i := range out {
		out[i] = WindowPoint{Start: time.Duration(i) * width}
	}
	for _, r := range c.records {
		i := int(r.Send / width)
		if i >= n {
			i = n - 1
		}
		out[i].Arrived++
		if r.Outcome == Good {
			out[i].Good++
		} else {
			out[i].Bad++
		}
	}
	return out
}

// MinNormalizedGoodput returns the minimum over windows of the normalized
// goodput, skipping empty windows (Fig. 2a).
func (c *Collector) MinNormalizedGoodput(width time.Duration) float64 {
	min := math.Inf(1)
	for _, w := range c.windows(width) {
		if w.Arrived == 0 {
			continue
		}
		if g := w.NormalizedGoodput(); g < min {
			min = g
		}
	}
	if math.IsInf(min, 1) {
		return 1
	}
	return min
}

// DropRateAtMinGoodput returns the drop rate of the window achieving the
// minimum normalized goodput (Fig. 2b pairs drop rates with Fig. 2a's
// windows).
func (c *Collector) DropRateAtMinGoodput(width time.Duration) float64 {
	min, rate := math.Inf(1), 0.0
	for _, w := range c.windows(width) {
		if w.Arrived == 0 {
			continue
		}
		if g := w.NormalizedGoodput(); g < min {
			min, rate = g, w.DropRate()
		}
	}
	return rate
}

// MaxDropRate returns the maximum per-window drop rate (Fig. 9).
func (c *Collector) MaxDropRate(width time.Duration) float64 {
	max := 0.0
	for _, w := range c.windows(width) {
		if r := w.DropRate(); r > max {
			max = r
		}
	}
	return max
}

// GoodputSeries returns (start, normalized goodput) pairs for plotting the
// Fig. 10 timelines.
func (c *Collector) GoodputSeries(width time.Duration) ([]time.Duration, []float64) {
	ws := c.windows(width)
	ts := make([]time.Duration, len(ws))
	vs := make([]float64, len(ws))
	for i, w := range ws {
		ts[i] = w.Start
		vs[i] = w.NormalizedGoodput()
	}
	return ts, vs
}

// DropRateSeries returns (start, drop rate) pairs (Fig. 2d transient drop
// rate).
func (c *Collector) DropRateSeries(width time.Duration) ([]time.Duration, []float64) {
	ws := c.windows(width)
	ts := make([]time.Duration, len(ws))
	vs := make([]float64, len(ws))
	for i, w := range ws {
		ts[i] = w.Start
		vs[i] = w.DropRate()
	}
	return ts, vs
}

// LatencyQuantiles returns end-to-end latency quantiles (each q in [0,1])
// over completed requests (Good and Late outcomes; drops have no meaningful
// completion latency). Returns nil when nothing completed. Latencies
// accumulate into a reusable scratch, sorted once per call with the
// reflection-free slices.Sort; every quantile reads the one sorted scratch.
func (c *Collector) LatencyQuantiles(qs ...float64) []time.Duration {
	lats := c.latScratch[:0]
	for _, r := range c.records {
		if r.Outcome == DroppedOutcome {
			continue
		}
		lats = append(lats, (r.Done - r.Send).Seconds())
	}
	c.latScratch = lats
	if len(lats) == 0 {
		return nil
	}
	slices.Sort(lats)
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = time.Duration(stats.QuantileSorted(lats, q) * float64(time.Second))
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
