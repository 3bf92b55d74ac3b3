package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// yardstick measures how slow the machine's memory system is right now, so
// that the host-time metrics of the op-shaped workloads can be stated at one
// reference speed instead of at whatever speed the minute offers.
//
// Why: the sandbox this benchmark is sized on shares its memory system with
// other tenants. An arithmetic loop repeats within 3 % all day, but for
// minutes at a time everything that misses the cache runs 1.2 to 2 times
// slower, the simulator with it, and no statistic taken inside a 15 s run
// removes a slowdown that outlasts the run. Two studies of 40 and 36
// processes of a minute each, all three op-shaped workloads in turn in every
// process: in a noisy hour the median op time spread 16 % (dense), 15 % (grid)
// and 26 % (dist) between processes as the clock read it and 9 %, 10 % and
// 16 % divided by the yardstick read beside each op; in a quieter hour 9 %,
// 9 % and 10 % against 4 %, 3 % and 6 % (README, "Steadiness").
//
// The yardstick is the benchmark's own code over its own two tables, which
// live outside the Go heap, so nothing the program under test does — its
// allocations, its collector's pacing — can move it: a change that makes an
// op faster or slower moves the scaled time exactly as it moves the raw one.
// Two probes, because the ops both stream memory (the collector, slab and
// trace scans) and chase pointers (event queues, request records):
//
//   - stream: the sum of a 128 MiB table read front to back, bound by memory
//     bandwidth;
//   - chain: 250 000 dependent loads through a 256 MiB table in the order of
//     a full-period linear congruential sequence, which no prefetcher follows,
//     bound by memory latency.
//
// A sample is the geometric mean of the two, each over its reference time.
type yardstick struct {
	stream []uint64
	chain  []uint32
	pos    uint32
	sink   uint64 // keeps the stream's sum live
}

const (
	streamWords = 16 << 20 // uint64: 128 MiB
	chainWords  = 64 << 20 // uint32: 256 MiB
	chainSteps  = 250_000

	// What the probes took in a quiet minute on the machine the benchmark was
	// sized on (6 GB/s; 175 ns per dependent load). Scaled times are what the
	// ops would have taken had every sample of the run read exactly this.
	streamRefMs = 21.5
	chainRefMs  = 44.0
)

// offHeap returns n zeroed words of anonymous memory that the Go collector
// neither scans nor counts towards its heap goal. It is never unmapped: the
// yardstick lives as long as the process.
func offHeap[T uint32 | uint64](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the yardstick's table: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// newYardstick builds the tables. Entry i of the chain holds the successor of
// i under x → 1664525·x + 1013904223 mod 2²⁶, which has full period
// (Hull–Dobell: the increment is odd and the multiplier is 1 mod 4), so the
// chain visits every entry before it repeats.
func newYardstick() (*yardstick, error) {
	stream, err := offHeap[uint64](streamWords)
	if err != nil {
		return nil, err
	}
	chain, err := offHeap[uint32](chainWords)
	if err != nil {
		return nil, err
	}
	for i := range stream {
		stream[i] = uint64(i)
	}
	for i := range chain {
		chain[i] = (1664525*uint32(i) + 1013904223) % chainWords
	}
	return &yardstick{stream: stream, chain: chain}, nil
}

// sample reads both probes and returns how slow the machine is against the
// reference: 1 at the reference speed, 1.5 when memory-bound code takes half
// as long again.
func (y *yardstick) sample() float64 {
	start := time.Now()
	var sum uint64
	for _, v := range y.stream {
		sum += v
	}
	y.sink += sum
	streamed := time.Now()
	p := y.pos
	for i := 0; i < chainSteps; i++ {
		p = y.chain[p]
	}
	y.pos = p
	chased := time.Now()
	return math.Sqrt(ms(streamed.Sub(start)) / streamRefMs * ms(chased.Sub(streamed)) / chainRefMs)
}
