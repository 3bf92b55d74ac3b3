package stats

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free HDR-style latency histogram: values (in microseconds)
// land in power-of-two buckets split into 64 linear sub-buckets across nine
// decades (1 µs to ~1 h). A quantile reads the midpoint of the slot holding
// the order statistic at its rank, within HistRelErr of that value (within
// 1 µs below 64 µs). Record, Max, Count and Quantile are safe for
// concurrent use — closed-loop workers and open-loop request goroutines
// record into one shared histogram without coordination.
type Hist struct {
	counts [histBuckets * histSubs]atomic.Uint64
	total  atomic.Uint64
	max    atomic.Int64
}

const (
	histSubBits = 6
	histSubs    = 1 << histSubBits // 64 linear sub-buckets per power of two
	histBuckets = 32
	histUnit    = time.Microsecond
)

// HistRelErr bounds a Hist quantile's relative error from 64 µs up: half a
// slot's width over the smallest value its bucket holds.
const HistRelErr = 1.0 / 64

// histIndex maps a value in histUnits to its slot. Bucket 0 is linear
// (values < histSubs); bucket b >= 1 covers [histSubs<<(b-1), histSubs<<b)
// with sub-index v>>b in [histSubs/2, histSubs) — the classic HDR layout
// (the lower half of each non-zero bucket is unreachable; the array is
// 16 KiB, so the waste buys branch-free indexing).
func histIndex(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	b := bits.Len64(v) - histSubBits
	if b >= histBuckets {
		return histBuckets*histSubs - 1
	}
	return b*histSubs + int(v>>uint(b))
}

// histValue reconstructs the lower bound of slot idx, in histUnits.
func histValue(idx int) uint64 {
	b := idx >> histSubBits
	sub := uint64(idx & (histSubs - 1))
	if b == 0 {
		return sub
	}
	return sub << uint(b)
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d / histUnit)
	h.counts[histIndex(v)].Add(1)
	h.total.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Max returns the largest recorded value exactly.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Counts returns the per-slot counts through the last non-empty slot: with
// Max, the histogram's whole state.
func (h *Hist) Counts() []uint64 {
	counts, last := make([]uint64, len(h.counts)), -1
	for i := range h.counts {
		if counts[i] = h.counts[i].Load(); counts[i] != 0 {
			last = i
		}
	}
	return counts[:last+1]
}

// Restore replaces the histogram's state with counts, as Counts returns
// them, and max. It refuses a state no sequence of Records produces: more
// slots than a Hist has, or a max outside the last non-empty slot. Not safe
// for concurrent use.
func (h *Hist) Restore(counts []uint64, max time.Duration) error {
	last, maxSlot := -1, -1
	for i, c := range counts {
		if c != 0 {
			last = i
		}
	}
	if last >= 0 || max != 0 {
		maxSlot = histIndex(uint64(max / histUnit))
	}
	if len(counts) > len(h.counts) || max < 0 || maxSlot != last {
		return fmt.Errorf("stats: %d histogram slots, last used %d, with max %v: no Record sequence leaves that", len(counts), last, max)
	}
	var total uint64
	for i := range h.counts {
		var c uint64
		if i < len(counts) {
			c = counts[i]
		}
		h.counts[i].Store(c)
		total += c
	}
	h.total.Store(total)
	h.max.Store(int64(max))
	return nil
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with the
// histogram's bucket resolution; q >= 1 returns the exact max. Concurrent
// recording skews the estimate by at most the in-flight updates.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	target := uint64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > target {
			// Midpoint of the slot's value range, clamped to the true max.
			b := i >> histSubBits
			width := uint64(1)
			if b > 0 {
				width = 1 << uint(b)
			}
			mid := time.Duration(histValue(i)+width/2) * histUnit
			if max := h.Max(); mid > max {
				mid = max
			}
			return mid
		}
	}
	return h.Max()
}
