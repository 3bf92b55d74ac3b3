package core

import (
	"slices"
	"testing"
	"time"
)

// TestBoardPublishCopies pins the board's ownership contract: Publish copies
// the state, batch-wait samples included, into the slot's own storage, so
// the publisher may reuse its sample buffer at once (module.publish hands
// over its batch-wait ring's live buffer), and republishing a slot's own snapshot
// changes nothing.
func TestBoardPublishCopies(t *testing.T) {
	b := NewBoard(2)
	src := []float64{0.01, 0.02, 0.03}
	b.Publish(0, ModuleState{QueueDelay: time.Millisecond, BatchWait: src, InputRate: 300, WCL: time.Second})
	src[0], src[2] = 9, 9
	src = append(src, 9)
	got := b.Get(0)
	if !slices.Equal(got.BatchWait, []float64{0.01, 0.02, 0.03}) {
		t.Fatalf("changing the published buffer changed the board: %v", got.BatchWait)
	}
	if got.QueueDelay != time.Millisecond || got.InputRate != 300 || got.WCL != time.Second {
		t.Fatalf("published scalars did not survive: %+v", got)
	}
	if s := b.Get(1); s.QueueDelay != 0 || s.BatchWait != nil {
		t.Fatalf("publishing slot 0 touched slot 1: %+v", s)
	}

	// A slot's own snapshot, published back, is unchanged; a peer's is copied.
	b.Publish(0, b.Get(0))
	if s := b.Get(0); !slices.Equal(s.BatchWait, []float64{0.01, 0.02, 0.03}) || s.InputRate != 300 {
		t.Fatalf("Publish(k, Get(k)) changed the slot: %+v", s)
	}
	b.Publish(1, b.Get(0))
	b.Publish(0, ModuleState{BatchWait: src})
	if s := b.Get(1); !slices.Equal(s.BatchWait, []float64{0.01, 0.02, 0.03}) {
		t.Fatalf("slot 1 shares slot 0's samples: %v", s.BatchWait)
	}
	if s := b.Get(0); !slices.Equal(s.BatchWait, src) || s.InputRate != 0 || s.WCL != 0 {
		t.Fatalf("a second publication did not replace the first: %+v", s)
	}

	// No samples, nil or empty, publish as none — over a slot that had some.
	for _, waits := range [][]float64{nil, {}} {
		b.Publish(0, ModuleState{BatchWait: waits, WCL: time.Second})
		if s := b.Get(0); len(s.BatchWait) != 0 || s.WCL != time.Second {
			t.Fatalf("publishing %#v left %+v", waits, s)
		}
	}
}

// TestAllocsBoardPublish: once a slot holds as many samples as its module
// publishes — the 512 of a full batch-wait ring — a publication copies
// into that storage and allocates nothing.
func TestAllocsBoardPublish(t *testing.T) {
	b := NewBoard(2)
	waits := make([]float64, 512)
	s := ModuleState{QueueDelay: time.Millisecond, ProfiledDur: 30 * time.Millisecond, BatchWait: waits, InputRate: 300, Throughput: 400}
	b.Publish(0, s)
	b.Publish(1, s)
	if avg := testing.AllocsPerRun(100, func() {
		waits[0]++
		b.Publish(0, s)
		b.Publish(1, b.Get(0))
	}); avg != 0 {
		t.Fatalf("a warm Publish of 512 samples allocates %.1f, want 0", avg)
	}
	if got := b.Get(1).BatchWait; len(got) != 512 || got[0] != waits[0] {
		t.Fatalf("slot 1 holds %d samples, first %v; want 512, %v", len(got), got[0], waits[0])
	}
}

// TestBoardReserve: a reserved slot keeps its storage from the first
// publication up to room samples, each slot its own room of one array, and
// a larger sample moves its slot out without touching a neighbour's.
func TestBoardReserve(t *testing.T) {
	const room = 512
	b := NewBoard(3)
	b.Reserve(room)
	home := make([]*float64, 3)
	for k := range home {
		home[k] = &b.Get(k).BatchWait[:1][0]
	}
	waits := make([]float64, room+1)
	for _, n := range []int{1, 37, room} {
		for k := range home {
			for i := range n {
				waits[i] = float64(k*1000 + i)
			}
			b.Publish(k, ModuleState{BatchWait: waits[:n]})
			if s := b.Get(k).BatchWait; &s[0] != home[k] || len(s) != n {
				t.Fatalf("slot %d left its room publishing %d samples", k, n)
			}
		}
	}
	b.Publish(1, ModuleState{BatchWait: waits})
	for k := range home {
		s := b.Get(k).BatchWait
		if moved := &s[0] != home[k]; moved != (k == 1) {
			t.Fatalf("publishing %d samples to slot 1: slot %d moved %t", room+1, k, moved)
		}
		if k != 1 && s[room-1] != float64(k*1000+room-1) {
			t.Fatalf("slot %d holds %v at its last sample, want %d", k, s[room-1], k*1000+room-1)
		}
	}
}

// BenchmarkBoardPublish measures one publication as a module's sync tick
// makes it: the state and a full ring's 512 batch-wait samples copied
// into the slot's own storage.
func BenchmarkBoardPublish(b *testing.B) {
	board := NewBoard(1)
	st := ModuleState{QueueDelay: time.Millisecond, InputRate: 1, BatchWait: make([]float64, 512)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.Publish(0, st)
	}
}
