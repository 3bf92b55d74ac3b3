package load

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free HDR-style latency histogram: values (in microseconds)
// land in power-of-two buckets split into 64 linear sub-buckets, giving a
// bounded relative error of ~3% per recorded value across nine decades
// (1 µs to ~1 h). All methods are safe for concurrent use — closed-loop
// workers and open-loop request goroutines record into one shared
// histogram without coordination.
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
