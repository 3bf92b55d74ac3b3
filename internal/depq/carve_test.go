package depq

import (
	"math/rand"
	"testing"
)

// sliceFIFO is the FIFO oracle: a plain slice, popped from the front.
type sliceFIFO struct{ s []entry[*int] }

func (q *sliceFIFO) Push(v *int, key int64) { q.s = append(q.s, entry[*int]{value: v, key: key}) }
func (q *sliceFIFO) Len() int               { return len(q.s) }
func (q *sliceFIFO) pop() (*int, int64, bool) {
	e, ok := q.peek()
	if ok {
		q.s = q.s[1:]
	}
	return e.value, e.key, ok
}
func (q *sliceFIFO) peek() (entry[*int], bool) {
	if len(q.s) == 0 {
		return entry[*int]{}, false
	}
	return q.s[0], true
}
func (q *sliceFIFO) PopMin() (*int, int64, bool) { return q.pop() }
func (q *sliceFIFO) PopMax() (*int, int64, bool) { return q.pop() }
func (q *sliceFIFO) PeekMin() (*int, int64, bool) {
	e, ok := q.peek()
	return e.value, e.key, ok
}
func (q *sliceFIFO) Drain() []*int {
	out := make([]*int, 0, len(q.s))
	for _, e := range q.s {
		out = append(out, e.value)
	}
	q.s = nil
	return out
}

// runCarved interleaves random Push/PopMin/PopMax/PeekMin/Drain over every
// queue of a carved set and checks each op against the queue's independent
// oracle. Queue 0 leans towards pushes and is never drained, so it grows
// far past its room and a long way past the FIFO's compaction threshold;
// the last queue never pushes while its room is full; the others drift up
// and drain now and then. after runs after every op on queue i.
func runCarved(t *testing.T, got, want []Queue[*int], roomFull func(i int) bool, after func(i int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vals := make([]int, 60000)
	next := 0
	for op := 0; op < len(vals); op++ {
		i := 0
		if rng.Intn(2) == 0 {
			i = 1 + rng.Intn(len(got)-1)
		}
		g, w := got[i], want[i]
		r := rng.Float64()
		switch {
		case (r < 0.5 || (i == 0 && r < 0.55)) && (i < len(got)-1 || !roomFull(i)):
			key := int64(rng.Intn(64)) // narrow, so ties are common
			g.Push(&vals[next], key)
			w.Push(&vals[next], key)
			next++
		case r < 0.7:
			checkPop(t, op, i, "PopMin", g.PopMin, w.PopMin)
		case r < 0.85:
			checkPop(t, op, i, "PopMax", g.PopMax, w.PopMax)
		case r < 0.95 || i == 0:
			checkPop(t, op, i, "PeekMin", g.PeekMin, w.PeekMin)
		default:
			gd, wd := g.Drain(), w.Drain()
			if !sameValues(gd, wd) {
				t.Fatalf("op %d: queue %d drained %d values, oracle %d, or different ones", op, i, len(gd), len(wd))
			}
		}
		if g.Len() != w.Len() {
			t.Fatalf("op %d: queue %d holds %d, oracle %d", op, i, g.Len(), w.Len())
		}
		after(i)
	}
}

func checkPop(t *testing.T, op, i int, name string, g, w func() (*int, int64, bool)) {
	t.Helper()
	gv, gk, gok := g()
	wv, wk, wok := w()
	if gv != wv || gk != wk || gok != wok {
		t.Fatalf("op %d: queue %d %s = (%p, %d, %v), oracle (%p, %d, %v)", op, i, name, gv, gk, gok, wv, wk, wok)
	}
}

// sameValues reports whether a and b hold the same values, in any order
// (a DEPQ drains in heap order).
func sameValues(a, b []*int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*int]int, len(a))
	for _, v := range a {
		seen[v]++
	}
	for _, v := range b {
		if seen[v]--; seen[v] < 0 {
			return false
		}
	}
	return true
}

// checkRooms checks that the carved set exercised both sides of a room —
// the last queue still inside it, queue 0 and at least one other moved
// out — and that a room left behind holds no value: it stays reachable
// through its neighbours' storage.
func checkRooms(t *testing.T, rooms [][]entry[*int], caps []int) {
	t.Helper()
	moved := 0
	for i, room := range rooms {
		if caps[i] == len(room) {
			continue
		}
		moved++
		for j, e := range room {
			if e.value != nil {
				t.Fatalf("queue %d moved out of its room, but slot %d still holds a value", i, j)
			}
		}
	}
	if last := len(caps) - 1; caps[0] == len(rooms[0]) || moved < 2 || caps[last] != len(rooms[last]) {
		t.Fatalf("%d of %d queues outgrew their room (queue 0: cap %d): the run exercised too little", moved, len(rooms), caps[0])
	}
}

// TestCarvedQueuesMatchOracles: queues carved from one storage array behave
// exactly as independent ones. Each pops what its own oracle does — a New
// DEPQ, or a plain slice for a FIFO — while its neighbours fill, outgrow
// their rooms, drain and (FIFO) compact around it.
func TestCarvedQueuesMatchOracles(t *testing.T) {
	const n, room = 8, 4
	t.Run("DEPQ", func(t *testing.T) {
		qs := NewDEPQs[*int](n, room)
		got, want := make([]Queue[*int], n), make([]Queue[*int], n)
		rooms := make([][]entry[*int], n)
		for i := range qs {
			got[i], want[i], rooms[i] = &qs[i], New[*int](), qs[i].h[:room]
		}
		runCarved(t, got, want, func(i int) bool { return len(qs[i].h) == room }, func(int) {})
		caps := make([]int, n)
		for i := range qs {
			caps[i] = cap(qs[i].h)
		}
		checkRooms(t, rooms, caps)
	})
	fifo := func(t *testing.T, qs []FIFO[*int]) {
		got, want := make([]Queue[*int], n), make([]Queue[*int], n)
		rooms := make([][]entry[*int], n)
		for i := range qs {
			got[i], want[i], rooms[i] = &qs[i], &sliceFIFO{}, qs[i].buf[:cap(qs[i].buf)]
		}
		compactions, lastHead := 0, 0
		runCarved(t, got, want, func(i int) bool { return len(qs[i].buf) == len(rooms[i]) }, func(i int) {
			if i != 0 {
				return
			}
			if q := &qs[0]; q.head < lastHead && q.Len() > 0 {
				compactions++
			}
			lastHead = qs[0].head
		})
		if compactions == 0 {
			t.Fatal("queue 0 never compacted")
		}
		caps := make([]int, n)
		for i := range qs {
			caps[i] = cap(qs[i].buf)
		}
		checkRooms(t, rooms, caps)
	}
	t.Run("FIFO", func(t *testing.T) { fifo(t, NewFIFOs[*int](n, room)) })
	// Groups of rooms of different sizes, as a cluster carves its modules'
	// pools: queue 0 and the last sit in different groups.
	t.Run("FIFOGroups", func(t *testing.T) { fifo(t, NewFIFOGroups[*int]([]int{3, 2, 3}, []int{room + 2, 1, room})) })
}

// TestCarveStaysInRoom: a carved room is capped at its own end, so neither
// an append past it nor a reslice up to its capacity reaches the next room.
func TestCarveStaysInRoom(t *testing.T) {
	const room = 3
	store := make([]int, 4*room)
	for i := 0; i < 4; i++ {
		s := Carve(store, i, room)
		if len(s) != 0 || cap(s) != room {
			t.Fatalf("room %d has len %d, cap %d, want 0, %d", i, len(s), cap(s), room)
		}
		for k := 0; k <= room; k++ {
			s = append(s, i+1)
		}
		clear(s[:cap(s)])
	}
	for k, v := range store {
		if want := k/room + 1; v != want {
			t.Fatalf("store[%d] = %d, want %d: a room was written from outside", k, v, want)
		}
	}
}

// TestAllocsCarvedQueues: a carved set costs two allocations whatever its
// size, and pushes that stay within a queue's room allocate nothing.
func TestAllocsCarvedQueues(t *testing.T) {
	const room = 4
	v := new(int)
	for _, n := range []int{1, 64} {
		if a := testing.AllocsPerRun(10, func() { NewDEPQs[*int](n, room) }); a != 2 {
			t.Errorf("NewDEPQs(%d, %d) allocates %.0f times, want 2", n, room, a)
		}
		if a := testing.AllocsPerRun(10, func() { NewFIFOs[*int](n, room) }); a != 2 {
			t.Errorf("NewFIFOs(%d, %d) allocates %.0f times, want 2", n, room, a)
		}
		counts, rooms := []int{n, 1, n}, []int{room, 2 * room, 1}
		if a := testing.AllocsPerRun(10, func() { NewFIFOGroups[*int](counts, rooms) }); a != 2 {
			t.Errorf("NewFIFOGroups(%v, %v) allocates %.0f times, want 2", counts, rooms, a)
		}
	}
	dq, fq := NewDEPQs[*int](8, room), NewFIFOs[*int](8, room)
	fill := func() {
		for i := range dq {
			for k := 0; k < room; k++ {
				dq[i].Push(v, int64(k))
				fq[i].Push(v, int64(k))
			}
		}
		for i := range dq {
			for k := 0; k < room; k++ {
				dq[i].PopMax()
				fq[i].PopMin()
			}
		}
	}
	if a := testing.AllocsPerRun(10, fill); a != 0 {
		t.Fatalf("pushes within room allocate %.1f per round, want 0", a)
	}
}

// TestDrainClearsSlots: Drain leaves no value reachable from the queue's
// array, as PopMin and PopMax leave none behind them — a drained queue must
// not keep its requests alive, least of all one carved from storage its
// neighbours keep reachable.
func TestDrainClearsSlots(t *testing.T) {
	vals := make([]int, 10)
	dq, fq := New[*int](), new(FIFO[*int])
	for i := range vals {
		dq.Push(&vals[i], int64(i))
		fq.Push(&vals[i], int64(i))
	}
	fq.PopMin() // the FIFO drains from a nonzero head
	if len(dq.Drain()) != 10 || len(fq.Drain()) != 9 {
		t.Fatal("Drain lost values")
	}
	for i, e := range dq.h[:cap(dq.h)] {
		if e.value != nil {
			t.Fatalf("DEPQ slot %d still holds a value after Drain", i)
		}
	}
	for i, e := range fq.buf[:cap(fq.buf)] {
		if e.value != nil {
			t.Fatalf("FIFO slot %d still holds a value after Drain", i)
		}
	}
}
