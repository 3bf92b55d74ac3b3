package sched

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"pard/internal/depq"
)

// The lane queue replaced depq.DEPQ in the lanes, and the DEPQ — unchanged,
// still the worker queues — is its oracle: one interpreter turns a byte
// string into pushes and min-pops, drives both queues with it, and requires
// the same (timestamp, push ordinal) out of both at every pop. The table test
// below and FuzzLaneQueue share it.
//
// Program bytes, one op each (d = low six bits, n = low four bits):
//
//	00dddddd  push at the last pushed timestamp + d: ascending, d = 0 an equal-key burst
//	01dddddd  pushHeap at the last popped timestamp + d: what a running lane schedules on itself, straight into the heap
//	10dddddd  push at d itself: below everything pending, the run's tail included
//	1100nnnn  pop up to n+1 events
//	1101nnnn  pop up to n+1 events, each followed by a pushHeap n later, as a batch start schedules its end inside laneState.run
//	111xxxxx  pop until empty: the run drains and the next push refills it from the front
func runLaneQueueProgram(t testing.TB, prog []byte) {
	var q laneQueue
	oracle := depq.New[uint64]()
	var pushes uint64
	var lastPush, lastPop time.Duration

	push := func(at time.Duration, own bool) {
		ev := laneEvent{op: opReceive, req: &Request{ID: pushes}}
		if own {
			q.pushHeap(at, ev)
		} else {
			q.push(at, ev)
			lastPush = at
		}
		oracle.Push(pushes, int64(at))
		pushes++
	}
	pop := func() (time.Duration, bool) {
		id, key, ok := oracle.PopMin()
		if head, has := q.peek(); has != ok || (ok && head != time.Duration(key)) {
			t.Fatalf("peek = (%v, %t), the oracle's minimum is (%v, %t)", head, has, time.Duration(key), ok)
		}
		if !ok {
			return 0, false
		}
		// peek has just agreed with the oracle on the timestamp.
		if ev := q.pop(); ev.req.ID != id {
			t.Fatalf("popped push %d at %v, the oracle pops push %d", ev.req.ID, time.Duration(key), id)
		}
		lastPop = time.Duration(key)
		return lastPop, true
	}

	for _, b := range prog {
		d, n := time.Duration(b&63), int(b&15)
		switch {
		case b < 0x40:
			push(lastPush+d, false)
		case b < 0x80:
			push(lastPop+d, true)
		case b < 0xC0:
			push(d, false)
		case b < 0xE0:
			for i := 0; i <= n; i++ {
				at, ok := pop()
				if !ok {
					break
				}
				if b&0x10 != 0 {
					push(at+time.Duration(n), true)
				}
			}
		default:
			for q.len() > 0 {
				pop()
			}
		}
		if q.len() != oracle.Len() {
			t.Fatalf("len = %d, the oracle holds %d", q.len(), oracle.Len())
		}
	}
	for oracle.Len() > 0 {
		pop()
	}
	if _, ok := q.peek(); ok || q.len() != 0 {
		t.Fatalf("the oracle is empty, the lane queue still holds %d", q.len())
	}
}

// laneQueueMixes weight the op kinds: a random program draws each op's top
// bits from a mix and, unless the mix spells its pushes out, the low bits
// uniformly.
var laneQueueMixes = []struct {
	name    string
	ops     []byte // repeated for weight
	literal bool   // pushes are taken as written
}{
	{name: "ascending-only", ops: []byte{0x00, 0x00, 0x00, 0xC0}},
	{name: "equal-key-bursts", ops: []byte{0x00, 0x00, 0x00, 0x01, 0x40, 0xC0}, literal: true},
	{name: "below-the-tail", ops: []byte{0x00, 0x80, 0x80, 0x40, 0xC0}},
	{name: "drain-and-refill", ops: []byte{0x00, 0x00, 0x40, 0xE0}},
	{name: "pushes-inside-the-pop-loop", ops: []byte{0x00, 0x00, 0xD0, 0xD0, 0x40}},
	{name: "everything", ops: []byte{0x00, 0x00, 0x40, 0x80, 0xC0, 0xC0, 0xD0, 0xE0}},
}

func TestLaneQueueMatchesDEPQ(t *testing.T) {
	for _, mix := range laneQueueMixes {
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog := make([]byte, 1+rng.Intn(2000))
				for i := range prog {
					op := mix.ops[rng.Intn(len(mix.ops))]
					switch {
					case op >= 0xC0:
						op |= byte(rng.Intn(16))
					case !mix.literal:
						op |= byte(rng.Intn(64))
					}
					prog[i] = op
				}
				runLaneQueueProgram(t, prog)
			}
		})
	}
}

func FuzzLaneQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 0x00, 0x00, 0xC3})                   // ascending with a tie, popped
	f.Add([]byte{0x3F, 0x81, 0x82, 0x45, 0xC1, 0x00, 0xE0})       // far tail, pushes under it, drain
	f.Add([]byte{0x05, 0x05, 0x05, 0xD3, 0xD0, 0xE0, 0x01, 0xC0}) // follow-ups from the pop loop, refill
	f.Add([]byte{0x00, 0x00, 0x80, 0x80, 0x40, 0x40, 0xCF})       // equal keys across run and heap
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<12 {
			prog = prog[:1<<12]
		}
		runLaneQueueProgram(t, prog)
	})
}

// TestLaneItemSize: six hundred thousand of these pass through the queues per
// dense simulation, so the item may not grow past the 72 bytes it had when an
// event carried a label and a func: a Handler takes the func's place and the
// label's string is gone.
func TestLaneItemSize(t *testing.T) {
	if got := unsafe.Sizeof(laneItem{}); got > 72 {
		t.Fatalf("laneItem is %d bytes, want at most 72", got)
	}
}
