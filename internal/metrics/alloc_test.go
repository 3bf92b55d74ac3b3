package metrics

import (
	"testing"
	"time"
)

// These tests pin the finalization hot path: deriving windowed metrics from
// a populated collector folds its buckets in place, so repeated per-width
// sweeps (Figs. 2, 8-10) allocate nothing, and LatencyQuantiles allocates
// only the caller-owned result slice.

func populatedCollector(n int) *Collector {
	c := NewCollector(100*time.Millisecond, 3)
	c.Reserve(time.Duration(n) * 10 * time.Millisecond)
	for i := 0; i < n; i++ {
		send := time.Duration(i) * 10 * time.Millisecond
		r := Record{Send: send, Done: send + 50*time.Millisecond, GPUTime: time.Millisecond}
		switch i % 5 {
		case 3:
			r.Outcome = Late
			r.Done = send + 200*time.Millisecond
		case 4:
			r.Outcome = DroppedOutcome
			r.DropModule = i % 3
		}
		c.Add(r)
	}
	return c
}

// TestAllocsWindowMetrics: the window-derived scalar metrics allocate
// nothing.
func TestAllocsWindowMetrics(t *testing.T) {
	c := populatedCollector(2000)
	width := time.Second

	avg := testing.AllocsPerRun(100, func() {
		c.MinNormalizedGoodput(width)
		c.DropRateAtMinGoodput(width)
		c.MaxDropRate(width)
	})
	if avg != 0 {
		t.Fatalf("window metric derivation allocates %.1f per round, want 0", avg)
	}
}

// TestAllocsLatencyQuantiles: the only allocation is the returned result
// slice — every quantile reads the histogram.
func TestAllocsLatencyQuantiles(t *testing.T) {
	c := populatedCollector(2000)
	qs := []float64{0.5, 0.9, 0.99}
	c.LatencyQuantiles(qs...)

	avg := testing.AllocsPerRun(100, func() {
		c.LatencyQuantiles(qs...)
	})
	if avg > 1 {
		t.Fatalf("LatencyQuantiles allocates %.1f per call, want <= 1 (the result slice)", avg)
	}
}

// TestAllocsTallyAdd: the server's ledger is fixed memory, so counting a
// request allocates nothing.
func TestAllocsTallyAdd(t *testing.T) {
	tally := NewTally(3)
	r := Record{Send: time.Second, Done: 2 * time.Second, Outcome: DroppedOutcome, DropModule: 1, GPUTime: time.Millisecond}
	if avg := testing.AllocsPerRun(1000, func() { tally.Add(r) }); avg != 0 {
		t.Fatalf("Tally.Add allocates %.1f per record, want 0", avg)
	}
}

// TestAllocsCollectorAdd: a collector reserved for a run's span counts every
// request of the run without allocating — its size follows the span, not the
// request count.
func TestAllocsCollectorAdd(t *testing.T) {
	c := NewCollector(100*time.Millisecond, 3)
	c.Reserve(time.Minute)
	i := 0
	avg := testing.AllocsPerRun(10_000, func() {
		send := time.Duration(i) * 5 * time.Millisecond % time.Minute
		c.Add(Record{Send: send, Done: send + 80*time.Millisecond, Outcome: Outcome(i % 3), DropModule: i % 3})
		i++
	})
	if avg != 0 {
		t.Fatalf("Collector.Add allocates %.2f per record, want 0", avg)
	}
}
