// Package depq implements the double-ended priority queue PARD uses to
// reorder requests by remaining latency budget (§4.3), plus a FIFO queue
// behind the same interface for arrival-order (reactive) policies.
//
// The DEPQ is a min-max heap (Atkinson et al., 1986): even tree levels obey
// the min-heap property, odd levels the max-heap property, so both the
// smallest and largest key are accessible in O(1) and removable in O(log n).
// PARD pops from the min end under Low-Budget-First and the max end under
// High-Budget-First; serving the max end, it sheds doomed requests from the
// min end.
package depq

import "math/bits"

// Queue is the common interface over the DEPQ and the FIFO queue. Keys are
// int64 priorities (PARD uses deadline timestamps in nanoseconds: a smaller
// key means an earlier deadline, i.e. a smaller remaining budget).
type Queue[T any] interface {
	// Push inserts value with the given priority key.
	Push(value T, key int64)
	// PopMin removes and returns the entry with the smallest key.
	PopMin() (T, int64, bool)
	// PopMax removes and returns the entry with the largest key.
	PopMax() (T, int64, bool)
	// PeekMin returns the smallest-key entry without removing it.
	PeekMin() (T, int64, bool)
	// Len returns the number of queued entries.
	Len() int
	// Drain removes and returns all entries in unspecified order.
	Drain() []T
}

type entry[T any] struct {
	value T
	key   int64
	seq   uint64 // insertion sequence; breaks key ties FIFO for determinism
}

// DEPQ is a double-ended priority queue implemented as a min-max heap.
// The zero value is ready to use. Not safe for concurrent use.
type DEPQ[T any] struct {
	h   []entry[T]
	seq uint64
}

// New returns an empty DEPQ.
func New[T any]() *DEPQ[T] { return &DEPQ[T]{} }

// Carve returns the i-th of the rooms of room elements that store is cut
// into, empty and capped at its room's end. An append past the room moves
// onto an array of its own and never writes into room i+1, and nothing that
// reslices it up to its capacity reaches a neighbour's elements.
func Carve[E any](store []E, i, room int) []E {
	return store[i*room : i*room : (i+1)*room]
}

// NewDEPQs returns n empty DEPQs carved from one storage array, each with
// room for room entries: the whole set costs two allocations. A queue that
// outgrows its room moves onto an array of its own and never writes into a
// neighbour's.
func NewDEPQs[T any](n, room int) []DEPQ[T] {
	qs := make([]DEPQ[T], n)
	store := make([]entry[T], n*room)
	for i := range qs {
		qs[i].h = Carve(store, i, room)
	}
	return qs
}

// push appends e to s. A full s moves onto a larger array and clears the one
// it leaves, because a carved room stays reachable through its neighbours'
// storage and must not keep the moved values alive.
func push[T any](s []entry[T], e entry[T]) []entry[T] {
	if len(s) < cap(s) {
		return append(s, e)
	}
	grown := append(s, e)
	clear(s)
	return grown
}

// Len returns the number of queued entries.
func (q *DEPQ[T]) Len() int { return len(q.h) }

// less orders entries by key, then insertion order. It defines the "min"
// direction of the heap.
func (q *DEPQ[T]) less(i, j int) bool {
	if q.h[i].key != q.h[j].key {
		return q.h[i].key < q.h[j].key
	}
	return q.h[i].seq < q.h[j].seq
}

func isMinLevel(i int) bool {
	// Level of node i in a binary heap is floor(log2(i+1)); even levels are
	// min levels.
	return bits.Len(uint(i)+1)%2 == 1
}

func parent(i int) int      { return (i - 1) / 2 }
func grandparent(i int) int { return (i - 3) / 4 }
func hasGrandparent(i int) bool {
	return i >= 3
}

// Push inserts value with the given key.
func (q *DEPQ[T]) Push(value T, key int64) {
	q.h = push(q.h, entry[T]{value: value, key: key, seq: q.seq})
	q.seq++
	q.bubbleUp(len(q.h) - 1)
}

func (q *DEPQ[T]) swap(i, j int) { q.h[i], q.h[j] = q.h[j], q.h[i] }

func (q *DEPQ[T]) bubbleUp(i int) {
	if i == 0 {
		return
	}
	p := parent(i)
	if isMinLevel(i) {
		if q.less(p, i) {
			q.swap(i, p)
			q.bubbleUpMax(p)
		} else {
			q.bubbleUpMin(i)
		}
	} else {
		if q.less(i, p) {
			q.swap(i, p)
			q.bubbleUpMin(p)
		} else {
			q.bubbleUpMax(i)
		}
	}
}

func (q *DEPQ[T]) bubbleUpMin(i int) {
	for hasGrandparent(i) {
		g := grandparent(i)
		if !q.less(i, g) {
			return
		}
		q.swap(i, g)
		i = g
	}
}

func (q *DEPQ[T]) bubbleUpMax(i int) {
	for hasGrandparent(i) {
		g := grandparent(i)
		if !q.less(g, i) {
			return
		}
		q.swap(i, g)
		i = g
	}
}

// minIndex returns the index holding the smallest key (always the root).
func (q *DEPQ[T]) minIndex() int { return 0 }

// maxIndex returns the index holding the largest key.
func (q *DEPQ[T]) maxIndex() int {
	switch len(q.h) {
	case 0:
		return -1
	case 1:
		return 0
	case 2:
		return 1
	default:
		if q.less(1, 2) {
			return 2
		}
		return 1
	}
}

// PeekMin returns the entry with the smallest key without removing it.
func (q *DEPQ[T]) PeekMin() (T, int64, bool) {
	var zero T
	if len(q.h) == 0 {
		return zero, 0, false
	}
	e := q.h[q.minIndex()]
	return e.value, e.key, true
}

// PopMin removes and returns the entry with the smallest key.
func (q *DEPQ[T]) PopMin() (T, int64, bool) {
	var zero T
	if len(q.h) == 0 {
		return zero, 0, false
	}
	return q.removeAt(q.minIndex())
}

// PopMax removes and returns the entry with the largest key.
func (q *DEPQ[T]) PopMax() (T, int64, bool) {
	var zero T
	if len(q.h) == 0 {
		return zero, 0, false
	}
	return q.removeAt(q.maxIndex())
}

func (q *DEPQ[T]) removeAt(i int) (T, int64, bool) {
	e := q.h[i]
	last := len(q.h) - 1
	q.h[i] = q.h[last]
	var zero entry[T]
	q.h[last] = zero
	q.h = q.h[:last]
	if i < len(q.h) {
		q.trickleDown(i)
		q.bubbleUp(i)
	}
	return e.value, e.key, true
}

func (q *DEPQ[T]) trickleDown(i int) {
	if isMinLevel(i) {
		q.trickleDownMin(i)
	} else {
		q.trickleDownMax(i)
	}
}

// descendants returns indices of the children and grandchildren of i that
// exist, appended to buf.
func (q *DEPQ[T]) descendants(i int, buf []int) []int {
	n := len(q.h)
	for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
		buf = append(buf, c)
		for g := 2*c + 1; g <= 2*c+2 && g < n; g++ {
			buf = append(buf, g)
		}
	}
	return buf
}

func (q *DEPQ[T]) trickleDownMin(i int) {
	var buf [6]int
	for {
		ds := q.descendants(i, buf[:0])
		if len(ds) == 0 {
			return
		}
		m := ds[0]
		for _, d := range ds[1:] {
			if q.less(d, m) {
				m = d
			}
		}
		if m > 2*i+2 { // grandchild
			if !q.less(m, i) {
				return
			}
			q.swap(m, i)
			if q.less(parent(m), m) {
				q.swap(m, parent(m))
			}
			i = m
			continue
		}
		// child
		if q.less(m, i) {
			q.swap(m, i)
		}
		return
	}
}

func (q *DEPQ[T]) trickleDownMax(i int) {
	var buf [6]int
	for {
		ds := q.descendants(i, buf[:0])
		if len(ds) == 0 {
			return
		}
		m := ds[0]
		for _, d := range ds[1:] {
			if q.less(m, d) {
				m = d
			}
		}
		if m > 2*i+2 { // grandchild
			if !q.less(i, m) {
				return
			}
			q.swap(m, i)
			if q.less(m, parent(m)) {
				q.swap(m, parent(m))
			}
			i = m
			continue
		}
		if q.less(i, m) {
			q.swap(m, i)
		}
		return
	}
}

// Drain removes and returns all values in unspecified order. It clears the
// slots it empties, as PopMin and PopMax do.
func (q *DEPQ[T]) Drain() []T {
	out := make([]T, 0, len(q.h))
	for _, e := range q.h {
		out = append(out, e.value)
	}
	clear(q.h)
	q.h = q.h[:0]
	return out
}

// FIFO is an arrival-order queue implementing Queue. PopMin and PopMax both
// return the oldest entry, so reactive policies that scan "in arrival order"
// behave identically regardless of which end the caller pops.
type FIFO[T any] struct {
	buf  []entry[T]
	head int
}

// NewFIFOs returns n empty FIFO queues carved from one storage array, each
// with room for room entries, as NewDEPQs does for DEPQs. The zero FIFO is
// ready to use as well.
func NewFIFOs[T any](n, room int) []FIFO[T] {
	return NewFIFOGroups[T]([]int{n}, []int{room})
}

// NewFIFOGroups returns FIFO queues in groups, group after group: counts[g]
// queues with room for rooms[g] entries each. They are carved from one
// storage array as NewFIFOs carves its queues, so every group together costs
// two allocations.
func NewFIFOGroups[T any](counts, rooms []int) []FIFO[T] {
	n, size := 0, 0
	for g, c := range counts {
		n += c
		size += c * rooms[g]
	}
	qs := make([]FIFO[T], n)
	store := make([]entry[T], size)
	i := 0
	for g, c := range counts {
		for range c {
			qs[i].buf, store = store[:0:rooms[g]], store[rooms[g]:]
			i++
		}
	}
	return qs
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends value; key is stored but does not affect order.
func (q *FIFO[T]) Push(value T, key int64) {
	q.buf = push(q.buf, entry[T]{value: value, key: key})
}

func (q *FIFO[T]) pop() (T, int64, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, 0, false
	}
	e := q.buf[q.head]
	var zentry entry[T]
	q.buf[q.head] = zentry
	q.head++
	if q.head == len(q.buf) {
		// Drained, as a worker's queue is between bursts: refill from the front.
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 1024 && q.head*2 > len(q.buf) {
		// Slide the live tail down the same array and clear what it left
		// behind, so the stale copies hold no value alive.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return e.value, e.key, true
}

// PopMin removes and returns the oldest entry.
func (q *FIFO[T]) PopMin() (T, int64, bool) { return q.pop() }

// PopMax removes and returns the oldest entry (arrival order).
func (q *FIFO[T]) PopMax() (T, int64, bool) { return q.pop() }

// PeekMin returns the oldest entry without removing it.
func (q *FIFO[T]) PeekMin() (T, int64, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, 0, false
	}
	e := q.buf[q.head]
	return e.value, e.key, true
}

// Drain removes and returns all values in arrival order. It clears the
// slots it empties, as a pop does.
func (q *FIFO[T]) Drain() []T {
	out := make([]T, 0, q.Len())
	for i := q.head; i < len(q.buf); i++ {
		out = append(out, q.buf[i].value)
	}
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
	return out
}
