package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median, the steadiness figure the regression bounds are judged
// against. The quartiles are the ones Python's statistics.quantiles(xs, n=4)
// gives (positions k(n+1)/4 among the sorted values), because that is how the
// driver computes the same figure. Fewer than four values report 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1 // 0-based, between s[lo] and s[lo+1]
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// hostCost is a snapshot of the process-wide counters the cost metrics are
// deltas of: heap objects allocated and CPU time charged (user + system).
type hostCost struct {
	mallocs uint64
	cpu     time.Duration
}

// cpuTime returns the CPU time the process has been charged so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero CPU
	// reading would surface as a zero metric, which the output check rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readHostCost stops the world for the allocation count, so it is only ever
// called outside a timed op.
func readHostCost() hostCost {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostCost{mallocs: m.Mallocs, cpu: cpuTime()}
}

// since returns the allocations and CPU time spent since the snapshot.
func (h hostCost) since() (allocs float64, cpu time.Duration) {
	now := readHostCost()
	return float64(now.mallocs - h.mallocs), now.cpu - h.cpu
}

// heapInUse returns the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
