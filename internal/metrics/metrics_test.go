package metrics

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pard/internal/stats"
	"pard/internal/wire"
)

func mkCollector() *Collector { return NewCollector(500*time.Millisecond, 5) }

func TestNewCollectorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCollector(0, 5) },
		func() { NewCollector(time.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSummaryCounts(t *testing.T) {
	c := mkCollector()
	c.Add(Record{Send: 0, Done: 100 * time.Millisecond, Outcome: Good, DropModule: -1, GPUTime: 10 * time.Millisecond})
	c.Add(Record{Send: 0, Done: 900 * time.Millisecond, Outcome: Late, DropModule: -1, GPUTime: 30 * time.Millisecond})
	c.Add(Record{Send: time.Second, Done: time.Second + 50*time.Millisecond, Outcome: DroppedOutcome, DropModule: 2, GPUTime: 20 * time.Millisecond})
	s := c.Summary()
	if s.Total != 3 || s.Good != 1 || s.Late != 1 || s.Dropped != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.DropRate-2.0/3) > 1e-12 {
		t.Fatalf("drop rate = %v", s.DropRate)
	}
	// Invalid: (30+20)/(10+30+20).
	if math.Abs(s.InvalidRate-50.0/60) > 1e-12 {
		t.Fatalf("invalid rate = %v", s.InvalidRate)
	}
	if s.PerModuleDropPct[2] != 100 {
		t.Fatalf("per-module drops = %v", s.PerModuleDropPct)
	}
}

func TestSummaryEmpty(t *testing.T) {
	c := mkCollector()
	s := c.Summary()
	if s.Total != 0 || s.DropRate != 0 || s.InvalidRate != 0 || s.Goodput != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if len(s.PerModuleDropPct) != 5 {
		t.Fatalf("per-module slice = %v", s.PerModuleDropPct)
	}
}

func TestGoodputPerSecond(t *testing.T) {
	c := mkCollector()
	// 10 good requests completing over 2 seconds → goodput 5/s.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		c.Add(Record{Send: at, Done: at + 100*time.Millisecond, Outcome: Good, DropModule: -1})
	}
	s := c.Summary()
	want := 10 / c.End().Seconds()
	if math.Abs(s.Goodput-want) > 1e-9 {
		t.Fatalf("goodput = %v, want %v", s.Goodput, want)
	}
}

func TestWindows(t *testing.T) {
	c := mkCollector()
	// Window 0: 2 good. Window 1: 1 good 1 bad. Window 2: 2 bad.
	add := func(sendSec float64, o Outcome) {
		at := time.Duration(sendSec * float64(time.Second))
		c.Add(Record{Send: at, Done: at, Outcome: o, DropModule: 0})
	}
	add(0.1, Good)
	add(0.2, Good)
	add(1.1, Good)
	add(1.2, DroppedOutcome)
	add(2.1, Late)
	add(2.2, DroppedOutcome)
	ws := c.Windows(time.Second)
	if len(ws) != 3 {
		t.Fatalf("windows = %d", len(ws))
	}
	if g := ws[0].NormalizedGoodput(); g != 1 {
		t.Fatalf("w0 goodput = %v", g)
	}
	if g := ws[1].NormalizedGoodput(); g != 0.5 {
		t.Fatalf("w1 goodput = %v", g)
	}
	if r := ws[2].DropRate(); r != 1 {
		t.Fatalf("w2 drop rate = %v", r)
	}
	if got := c.MinNormalizedGoodput(time.Second); got != 0 {
		t.Fatalf("min goodput = %v", got)
	}
	if got := c.MaxDropRate(time.Second); got != 1 {
		t.Fatalf("max drop rate = %v", got)
	}
	if got := c.DropRateAtMinGoodput(time.Second); got != 1 {
		t.Fatalf("drop at min goodput = %v", got)
	}
}

func TestWindowsEmptyAndPanics(t *testing.T) {
	c := mkCollector()
	if ws := c.Windows(time.Second); ws != nil {
		t.Fatalf("empty collector windows = %v", ws)
	}
	if g := c.MinNormalizedGoodput(time.Second); g != 1 {
		t.Fatalf("empty min goodput = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero width")
		}
	}()
	c.Add(Record{Outcome: Good, DropModule: -1})
	c.Windows(0)
}

func TestEmptyWindowConventions(t *testing.T) {
	w := WindowPoint{}
	if w.NormalizedGoodput() != 1 {
		t.Fatal("empty window goodput should be 1")
	}
	if w.DropRate() != 0 {
		t.Fatal("empty window drop rate should be 0")
	}
}

func TestSeriesGaps(t *testing.T) {
	// Min goodput must skip windows with no arrivals rather than treating
	// them as zero.
	c := mkCollector()
	c.Add(Record{Send: 0, Done: 0, Outcome: Good, DropModule: -1})
	c.Add(Record{Send: 5 * time.Second, Done: 5 * time.Second, Outcome: Good, DropModule: -1})
	if g := c.MinNormalizedGoodput(time.Second); g != 1 {
		t.Fatalf("min goodput with gaps = %v", g)
	}
}

func TestGoodputAndDropSeries(t *testing.T) {
	c := mkCollector()
	c.Add(Record{Send: 100 * time.Millisecond, Done: 200 * time.Millisecond, Outcome: Good, DropModule: -1})
	c.Add(Record{Send: 1100 * time.Millisecond, Done: 1100 * time.Millisecond, Outcome: DroppedOutcome, DropModule: 1})
	ts, gs := c.GoodputSeries(time.Second)
	if len(ts) != 2 || gs[0] != 1 || gs[1] != 0 {
		t.Fatalf("goodput series = %v %v", ts, gs)
	}
	_, ds := c.DropRateSeries(time.Second)
	if ds[0] != 0 || ds[1] != 1 {
		t.Fatalf("drop series = %v", ds)
	}
}

func TestPerModuleDropPctSums(t *testing.T) {
	c := mkCollector()
	for m := 0; m < 5; m++ {
		for i := 0; i <= m; i++ {
			c.Add(Record{Outcome: DroppedOutcome, DropModule: m})
		}
	}
	s := c.Summary()
	var sum float64
	for _, p := range s.PerModuleDropPct {
		sum += p
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("per-module percentages sum to %v", sum)
	}
	if s.PerModuleDropPct[4] <= s.PerModuleDropPct[0] {
		t.Fatalf("expected more drops at module 4: %v", s.PerModuleDropPct)
	}
}

func TestSeriesBucketed(t *testing.T) {
	var s Series
	s.Add(100*time.Millisecond, 10)
	s.Add(200*time.Millisecond, 20)
	s.Add(2500*time.Millisecond, 40)
	ts, vs := s.Bucketed(time.Second)
	if len(ts) != 3 {
		t.Fatalf("buckets = %d", len(ts))
	}
	if vs[0] != 15 {
		t.Fatalf("bucket 0 = %v", vs[0])
	}
	if vs[1] != 15 { // empty bucket holds previous value
		t.Fatalf("bucket 1 = %v", vs[1])
	}
	if vs[2] != 40 {
		t.Fatalf("bucket 2 = %v", vs[2])
	}
}

func TestSeriesOutOfOrderClamped(t *testing.T) {
	var s Series
	s.Add(time.Second, 1)
	s.Add(500*time.Millisecond, 2)
	if s.T[1] != time.Second {
		t.Fatalf("timestamps = %v", s.T)
	}
}

func TestSeriesQuantile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i)*time.Millisecond, float64(i))
	}
	if q := s.Quantile(0.5); q != 50 {
		t.Fatalf("median = %v", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	var empty Series
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	c := mkCollector()
	for i := 1; i <= 100; i++ {
		c.Add(Record{
			Send:       0,
			Done:       time.Duration(i) * time.Millisecond,
			Outcome:    Good,
			DropModule: -1,
		})
	}
	// Drops must be excluded.
	c.Add(Record{Send: 0, Done: 10 * time.Second, Outcome: DroppedOutcome, DropModule: 1})
	qs := c.LatencyQuantiles(0.5, 0.99, 0, 1)
	// Rank ⌊q·100⌋ of 1..100 ms is the value (rank+1) ms.
	for i, want := range []time.Duration{51 * time.Millisecond, 100 * time.Millisecond, time.Millisecond} {
		if rel := math.Abs(float64(qs[i]-want)) / float64(want); rel > stats.HistRelErr {
			t.Fatalf("quantile %d = %v, want %v within %.4f (off %.4f)", i, qs[i], want, stats.HistRelErr, rel)
		}
	}
	if qs[3] != 100*time.Millisecond {
		t.Fatalf("max = %v, want exactly 100ms", qs[3])
	}
}

func TestLatencyQuantilesEmpty(t *testing.T) {
	c := mkCollector()
	if qs := c.LatencyQuantiles(0.5); qs != nil {
		t.Fatalf("empty quantiles = %v", qs)
	}
	c.Add(Record{Outcome: DroppedOutcome, DropModule: 0})
	if qs := c.LatencyQuantiles(0.5); qs != nil {
		t.Fatalf("drop-only quantiles = %v", qs)
	}
}

func TestOutcomeString(t *testing.T) {
	if Good.String() != "good" || Late.String() != "late" || DroppedOutcome.String() != "dropped" {
		t.Fatal("outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome empty")
	}
}

// Property: conservation — windows partition all records, so the sum of
// Arrived equals the record count and Good+Bad == Arrived per window.
func TestPropertyWindowConservation(t *testing.T) {
	f := func(sends []uint16, outcomes []uint8) bool {
		c := mkCollector()
		n := len(sends)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			o := Outcome(outcomes[i] % 3)
			at := time.Duration(sends[i]) * time.Millisecond
			c.Add(Record{Send: at, Done: at, Outcome: o, DropModule: 0})
		}
		if n == 0 {
			return true
		}
		for _, width := range []time.Duration{WindowBase, 3 * WindowBase} {
			total := 0
			for _, w := range c.Windows(width) {
				if w.Good+w.Bad != w.Arrived {
					return false
				}
				total += w.Arrived
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: drop rate and invalid rate are always within [0,1].
func TestPropertyRatesBounded(t *testing.T) {
	f := func(outcomes []uint8, gpu []uint16) bool {
		c := mkCollector()
		n := len(outcomes)
		if len(gpu) < n {
			n = len(gpu)
		}
		for i := 0; i < n; i++ {
			c.Add(Record{
				Outcome:    Outcome(outcomes[i] % 3),
				DropModule: i % 5,
				GPUTime:    time.Duration(gpu[i]) * time.Microsecond,
			})
		}
		s := c.Summary()
		return s.DropRate >= 0 && s.DropRate <= 1 && s.InvalidRate >= 0 && s.InvalidRate <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorGobRoundTrip proves the collector survives its binary form
// (MarshalBinary, which encoding/gob calls too, so a gob round trip is the
// oracle here): its whole state — aggregates, buckets, digest, histogram —
// and so every derived metric match after decode, and the decoded collector
// encodes to the same bytes.
func TestCollectorGobRoundTrip(t *testing.T) {
	c := NewCollector(100*time.Millisecond, 3)
	c.Add(Record{Send: 0, Done: 50 * time.Millisecond, Outcome: Good, DropModule: -1, GPUTime: 5 * time.Millisecond})
	c.Add(Record{Send: 10 * time.Millisecond, Done: 200 * time.Millisecond, Outcome: Late, DropModule: -1, GPUTime: 7 * time.Millisecond})
	c.Add(Record{Send: 20 * time.Millisecond, Done: 30 * time.Millisecond, Outcome: DroppedOutcome, DropModule: 1, GPUTime: time.Millisecond})
	c.Add(Record{Send: 1300 * time.Millisecond, Done: 1300 * time.Millisecond, Outcome: Rejected, DropModule: -1})

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	sent := bytes.Clone(buf.Bytes())
	var got Collector
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("collectors differ after round trip:\nwant %+v\ngot  %+v", c, &got)
	}
	if !reflect.DeepEqual(got.Summary(), c.Summary()) {
		t.Fatalf("summaries differ:\nwant %+v\ngot  %+v", c.Summary(), got.Summary())
	}
	if !reflect.DeepEqual(got.Windows(WindowBase), c.Windows(WindowBase)) ||
		!reflect.DeepEqual(got.LatencyQuantiles(0.5, 1), c.LatencyQuantiles(0.5, 1)) {
		t.Fatal("windows or latencies differ after round trip")
	}
	if got.End() != c.End() {
		t.Fatal("end differs after round trip")
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&got); err != nil || !bytes.Equal(buf.Bytes(), sent) {
		t.Fatalf("decoded collector re-encodes differently (err %v)", err)
	}
}

// summaryOf is the oracle for Summary: every aggregate recounted from the
// records in one pass.
func summaryOf(recs []Record, n int) Summary {
	s := Summary{Total: len(recs), PerModuleDropPct: make([]float64, n)}
	perModule := make([]int, n)
	var end time.Duration
	for _, r := range recs {
		switch r.Outcome {
		case Good:
			s.Good++
		case Late:
			s.Late++
		case DroppedOutcome:
			s.Dropped++
			if r.DropModule >= 0 && r.DropModule < n {
				perModule[r.DropModule]++
			}
		case Rejected:
			s.Rejected++
		}
		s.GPUTotal += r.GPUTime
		if r.Bad() {
			s.GPUWasted += r.GPUTime
		}
		end = max(end, r.Send, r.Done)
	}
	if s.Total > 0 {
		s.DropRate = float64(s.Dropped+s.Late) / float64(s.Total)
	}
	if s.GPUTotal > 0 {
		s.InvalidRate = float64(s.GPUWasted) / float64(s.GPUTotal)
	}
	if end > 0 {
		s.Goodput = float64(s.Good) / end.Seconds()
		s.OfferedRate = float64(s.Total) / end.Seconds()
	}
	if s.Dropped > 0 {
		for k, d := range perModule {
			s.PerModuleDropPct[k] = 100 * float64(d) / float64(s.Dropped)
		}
	}
	return s
}

// TestTallyMatchesCollector: a Tally, which keeps no records, summarizes a
// record stream exactly as the Collector that keeps them does, and both equal
// the summary recounted from the records — over random streams of every
// outcome, rejected ones included, with drop modules in and out of range.
func TestTallyMatchesCollector(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tally, col := NewTally(n), NewCollector(100*time.Millisecond, n)
		recs := make([]Record, rng.Intn(300))
		for i := range recs {
			send := time.Duration(rng.Intn(10_000)) * time.Millisecond
			recs[i] = Record{
				Send:       send,
				Done:       send + time.Duration(rng.Intn(500))*time.Millisecond,
				Outcome:    Outcome(rng.Intn(4)),
				DropModule: rng.Intn(n+3) - 2, // -2 … n: out of range at both ends
				GPUTime:    time.Duration(rng.Intn(50_000)) * time.Microsecond,
			}
			tally.Add(recs[i])
			col.Add(recs[i])
		}
		want := summaryOf(recs, n)
		if got := tally.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: tally summary\n%+v\nwant\n%+v", trial, got, want)
		}
		if got := col.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: collector summary\n%+v\nwant\n%+v", trial, got, want)
		}
		arrived := 0
		for _, w := range col.Windows(WindowBase) {
			arrived += w.Arrived
		}
		if tally.End() != col.End() || arrived != len(recs) {
			t.Fatalf("trial %d: end %v vs %v, %d requests in windows of %d", trial, tally.End(), col.End(), arrived, len(recs))
		}
	}
}

// TestSeriesCodec: a series, and a nil one, survive their wire form; one
// whose timestamps and values differ in number, or whose timestamps are
// negative or decrease — an index Bucketed would take — is refused.
func TestSeriesCodec(t *testing.T) {
	s := &Series{Name: "queue-delay", T: []time.Duration{0, 100 * time.Millisecond, 100 * time.Millisecond}, V: []float64{1, 2.5, 0}}
	b := AppendSeries(AppendSeries(nil, s), nil)
	r := wire.NewReader(b)
	got, none := ReadSeries(&r), ReadSeries(&r)
	if err := r.Done("series"); err != nil || !reflect.DeepEqual(got, s) || none != nil {
		t.Fatalf("round trip: %+v, %+v, %v", got, none, err)
	}
	for name, bad := range map[string]*Series{
		"counts differ": {Name: "x", T: []time.Duration{0, 1}, V: []float64{1}},
		"negative":      {Name: "x", T: []time.Duration{-time.Second}, V: []float64{1}},
		"decreasing":    {Name: "x", T: []time.Duration{2, 1}, V: []float64{1, 1}},
	} {
		r := wire.NewReader(AppendSeries(nil, bad))
		ReadSeries(&r)
		if r.Done("series") == nil {
			t.Errorf("%s: a series with T %v and V %v decoded", name, bad.T, bad.V)
		}
	}
}
