package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pard/internal/stats"
	"pard/internal/wire"
)

// refCollector is the record-keeping collector, kept as the oracle for the
// Collector's buckets and histogram: every record stored, windows counted
// from the records, latencies sorted.
type refCollector struct {
	recs []Record
	end  time.Duration
}

func (r *refCollector) add(rec Record) {
	r.recs = append(r.recs, rec)
	r.end = max(r.end, rec.Send, rec.Done)
}

func (r *refCollector) windows(width time.Duration) []WindowPoint {
	if len(r.recs) == 0 {
		return nil
	}
	n := int(r.end/width) + 1
	out := make([]WindowPoint, n)
	for i := range out {
		out[i].Start = time.Duration(i) * width
	}
	for _, rec := range r.recs {
		w := &out[min(int(rec.Send/width), n-1)]
		w.Arrived++
		if rec.Outcome == Good {
			w.Good++
		} else {
			w.Bad++
		}
	}
	return out
}

// latencies returns the sorted latencies of every request not dropped.
func (r *refCollector) latencies() []time.Duration {
	var lats []time.Duration
	for _, rec := range r.recs {
		if rec.Outcome != DroppedOutcome {
			lats = append(lats, rec.Done-rec.Send)
		}
	}
	slices.Sort(lats)
	return lats
}

// oracleWidths is every window width a figure or command uses: the paper's
// widths, a quarter of them floored at 2 s, the 5/10/20 s buckets and
// pard-sim's 24 s -window default; then the base itself and a few multiples.
var oracleWidths = []time.Duration{
	22 * time.Second, 24 * time.Second, 26 * time.Second, 28 * time.Second,
	5500 * time.Millisecond, 6 * time.Second, 6250 * time.Millisecond, 6500 * time.Millisecond,
	7 * time.Second, 12500 * time.Millisecond, 2 * time.Second,
	5 * time.Second, 10 * time.Second, 20 * time.Second,
	WindowBase, 3 * WindowBase, time.Second,
}

// randomRecords draws n records over a span of sends, a tenth of them sent
// exactly on a base-bucket boundary.
func randomRecords(rng *rand.Rand, n int, span time.Duration) []Record {
	recs := make([]Record, n)
	for i := range recs {
		send := time.Duration(rng.Int63n(int64(span)))
		if rng.Intn(10) == 0 {
			send = send / WindowBase * WindowBase
		}
		recs[i] = Record{
			Send:       send,
			Done:       send + time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second))),
			Outcome:    Outcome(rng.Intn(4)),
			DropModule: rng.Intn(3),
			GPUTime:    time.Duration(rng.Intn(50_000)) * time.Microsecond,
		}
	}
	return recs
}

// TestCollectorMatchesRecordOracle: on random records, the Collector's
// windows equal the record-keeping oracle's at every width listed above,
// and each latency quantile lies within the histogram's stated relative
// error of the exact order statistic at the histogram's rank ⌊q·n⌋.
func TestCollectorMatchesRecordOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 40; trial++ {
		c, ref := NewCollector(400*time.Millisecond, 3), &refCollector{}
		span := time.Duration(1+rng.Intn(180)) * time.Second
		c.Reserve(span)
		for _, rec := range randomRecords(rng, rng.Intn(3000), span) {
			c.Add(rec)
			ref.add(rec)
		}
		for _, w := range oracleWidths {
			if got, want := c.Windows(w), ref.windows(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, width %v: windows\n%v\nwant\n%v", trial, w, got, want)
			}
		}
		lats := ref.latencies()
		got := c.LatencyQuantiles(qs...)
		if len(lats) == 0 {
			if got != nil {
				t.Fatalf("trial %d: quantiles %v with nothing completed", trial, got)
			}
			continue
		}
		for i, q := range qs {
			want := lats[min(int(q*float64(len(lats))), len(lats)-1)]
			if rel := math.Abs(float64(got[i]-want)) / float64(want); rel > stats.HistRelErr {
				t.Fatalf("trial %d: q%v = %v, exact %v, relative error %.4f > %.4f", trial, q, got[i], want, rel, stats.HistRelErr)
			}
		}
		if got[len(qs)-1] != lats[len(lats)-1] {
			t.Fatalf("trial %d: max %v, want exactly %v", trial, got[len(qs)-1], lats[len(lats)-1])
		}
	}
}

// TestWindowWidthRefused: a width that is not a positive multiple of the
// base bucket cannot be folded from it exactly, so it is refused.
func TestWindowWidthRefused(t *testing.T) {
	c := mkCollector()
	c.Add(Record{Send: time.Second, Done: 2 * time.Second, Outcome: Good, DropModule: -1})
	for _, w := range []time.Duration{0, -WindowBase, 7 * time.Millisecond, 1100 * time.Millisecond, WindowBase + 1} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "multiple of 250ms") {
					t.Fatalf("width %v: recovered %v, want a refusal naming the base", w, r)
				}
			}()
			c.Windows(w)
		}()
	}
}

// TestCollectorDigest: the encoded collector tells apart record streams that
// every count and bucket agree on — one field changed, or two records
// swapped.
func TestCollectorDigest(t *testing.T) {
	base := []Record{
		{Send: 0, Done: 90 * time.Millisecond, Outcome: Good, DropModule: -1, GPUTime: time.Millisecond},
		{Send: 10 * time.Millisecond, Done: 80 * time.Millisecond, Outcome: Good, DropModule: -1, GPUTime: time.Millisecond},
		{Send: 20 * time.Millisecond, Done: 40 * time.Millisecond, Outcome: DroppedOutcome, DropModule: 1},
	}
	encode := func(recs []Record) []byte {
		c := mkCollector()
		for _, r := range recs {
			c.Add(r)
		}
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encode(base)
	if !bytes.Equal(encode(base), want) {
		t.Fatal("the same records encode differently")
	}
	swapped := []Record{base[1], base[0], base[2]}
	dropAt := slices.Clone(base)
	dropAt[2].Done += time.Microsecond // same bucket, not in the histogram
	gpu := slices.Clone(base)
	gpu[0].GPUTime, gpu[1].GPUTime = gpu[1].GPUTime+time.Nanosecond, gpu[0].GPUTime-time.Nanosecond // same total
	for name, recs := range map[string][]Record{"swapped": swapped, "drop instant": dropAt, "GPU split": gpu} {
		if bytes.Equal(encode(recs), want) {
			t.Errorf("%s: encodes like the original records", name)
		}
	}
}

// TestCollectorDecodeRefuses: decoding a state no sequence of Adds produces
// returns an error naming what is wrong, and never panics.
func TestCollectorDecodeRefuses(t *testing.T) {
	c := mkCollector()
	c.Reserve(5 * time.Second)
	for _, rec := range randomRecords(rand.New(rand.NewSource(3)), 200, 5*time.Second) {
		c.Add(rec)
	}
	good, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var valid collectorWire
	r := wire.NewReader(good)
	if valid.read(&r); r.Done("collector") != nil {
		t.Fatal(r.Done("collector"))
	}
	cases := []struct {
		name, want string
		mutate     func(w *collectorWire)
	}{
		{"no modules", "module count 0", func(w *collectorWire) { w.NModules, w.Tally.ModuleDrops = 0, nil }},
		{"negative modules", "module count -1", func(w *collectorWire) { w.NModules = -1 }},
		{"zero SLO", "SLO 0s", func(w *collectorWire) { w.SLO = 0 }},
		{"negative SLO", "SLO -1s", func(w *collectorWire) { w.SLO = -time.Second }},
		{"drop counts short", "per-module drop counts", func(w *collectorWire) { w.Tally.ModuleDrops = w.Tally.ModuleDrops[:2] }},
		{"outcomes past total", "exceed", func(w *collectorWire) { w.Tally.Good = w.Tally.Total + 1 }},
		{"negative count", "exceed", func(w *collectorWire) { w.Tally.Late = -1 }},
		{"module drops past drops", "per-module drops", func(w *collectorWire) { w.Tally.ModuleDrops[0] = w.Tally.Dropped + 1 }},
		{"buckets missing a request", "buckets miss", func(w *collectorWire) { w.Tally.Total++ }},
		{"bucket good past arrived", "buckets count more", func(w *collectorWire) { w.Buckets[0].Good = w.Buckets[0].Arrived + 1 }},
		{"bucket past the end", "send-time buckets for a run", func(w *collectorWire) { w.Buckets = append(w.Buckets, make([]bucket, 9)...) }},
		{"end past the buckets", "send-time buckets for a run", func(w *collectorWire) { w.Tally.End = math.MaxInt64 }},
		{"negative end", "send-time buckets for a run", func(w *collectorWire) { w.Tally.End = -1 }},
		{"histogram short", "latencies for", func(w *collectorWire) { w.Latency[len(w.Latency)-1]-- }},
		{"histogram max elsewhere", "max", func(w *collectorWire) { w.LatencyMax = 0 }},
		{"histogram too wide", "slots", func(w *collectorWire) { w.Latency = make([]uint64, 1<<12) }},
		{"histogram ends empty", "end with an empty one", func(w *collectorWire) { w.Latency = append(w.Latency, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := valid
			w.Tally.ModuleDrops = slices.Clone(valid.Tally.ModuleDrops)
			w.Buckets = slices.Clone(valid.Buckets)
			w.Latency = slices.Clone(valid.Latency)
			tc.mutate(&w)
			var got Collector
			err := got.UnmarshalBinary(w.append(nil))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %v, want one containing %q", err, tc.want)
			}
		})
	}
	var got Collector
	if err := got.UnmarshalBinary(good); err != nil {
		t.Fatalf("the unmutated state is refused: %v", err)
	}
}
