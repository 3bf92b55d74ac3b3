package sched

import "time"

// laneQueue is a lane's pending-event queue: pop order is (timestamp, push
// order), the contract shard.go documents, and nothing else is offered —
// lanes never pop from the far end, so the worker queues' min-max heap
// (internal/depq, the paper's §4.3 design) would pay for an end nobody uses.
//
// What a lane is handed from outside arrives in time order: a whole trace of
// arrivals before the run starts, then one time-sorted batch of posts per
// barrier. push appends such an event to the monotone run — a FIFO slice read
// from the front — unless its timestamp is below the run's newest. Only those
// stragglers and what the lane schedules on itself (pushHeap: batch ends and
// warm-ups, an execution ahead of the posts still to come — in the run they
// would send every later post to the heap) enter the binary min-heap, which
// stays as deep as the lane has batches in flight whatever the trace length.
// pop takes the smaller of the two heads. Popped slots are not cleared: a
// simulator's queues live for one run, but a live server's lanes live as long
// as the server does, and a stale slot there keeps what its event held — the
// *Request and *worker of a core event, the Handler of a host event — until a
// later push overwrites it: at most each lane's pending high-water mark of
// them. That pins nothing extra while the server's request slab is never
// reclaimed; reclaiming the slab (ROADMAP, live-server item (1)) must account
// for these slots, by clearing them or by bounding what they can reference.
type laneQueue struct {
	heap []laneItem // binary min-heap on (at, seq)
	run  []laneItem // run[head:] is pending, in (at, seq) order
	head int
	seq  uint64 // pushes so far: the FIFO tiebreak among equal timestamps
}

// laneItem is 64 bytes (TestLaneItemSize bounds it): every event of a run is
// copied in and out of one, so a field added to laneEvent is paid per event.
type laneItem struct {
	at  time.Duration
	seq uint64
	ev  laneEvent
}

func (a *laneItem) before(b *laneItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *laneQueue) push(at time.Duration, ev laneEvent) {
	n := len(q.run)
	if n > q.head && at < q.run[n-1].at {
		q.pushHeap(at, ev)
		return
	}
	if n == cap(q.run) && q.head*2 > n {
		// Full and mostly consumed: slide the pending tail down instead of
		// growing, so a run that never quite drains still reuses its array.
		q.run = q.run[:copy(q.run, q.run[q.head:])]
		q.head = 0
	}
	q.seq++
	q.run = append(q.run, laneItem{at: at, seq: q.seq, ev: ev})
}

// reserve makes room in the run for n more events: a whole trace of arrivals
// then lands in one array instead of growing it a quarter at a time.
func (q *laneQueue) reserve(n int) {
	q.run = append(make([]laneItem, 0, len(q.run)+n), q.run...)
}

// pushHeap inserts into the heap whatever the timestamp.
func (q *laneQueue) pushHeap(at time.Duration, ev laneEvent) {
	q.seq++
	it := laneItem{at: at, seq: q.seq, ev: ev}
	q.heap = append(q.heap, it)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// heapFirst reports whether the heap's head precedes the run's; the queue
// must not be empty.
func (q *laneQueue) heapFirst() bool {
	return q.head == len(q.run) || (len(q.heap) > 0 && q.heap[0].before(&q.run[q.head]))
}

func (q *laneQueue) len() int { return len(q.heap) + len(q.run) - q.head }

// peek returns the earliest pending timestamp.
func (q *laneQueue) peek() (time.Duration, bool) {
	switch {
	case len(q.heap) == 0 && q.head == len(q.run):
		return 0, false
	case q.heapFirst():
		return q.heap[0].at, true
	default:
		return q.run[q.head].at, true
	}
}

// pop removes and returns the pending event that is first in (timestamp,
// push order). The queue must not be empty.
func (q *laneQueue) pop() laneEvent {
	if q.heapFirst() {
		return q.heapPop()
	}
	it := &q.run[q.head]
	q.head++
	if q.head == len(q.run) {
		q.run, q.head = q.run[:0], 0 // drained: the next run starts at the front
	}
	return it.ev
}

func (q *laneQueue) heapPop() laneEvent {
	h := q.heap
	ev := h[0].ev
	n := len(h) - 1
	last := h[n]
	q.heap = h[:n]
	// Sift the hole at the root down to where the last entry fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return ev
}
