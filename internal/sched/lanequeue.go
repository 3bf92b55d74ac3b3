package sched

import (
	"cmp"
	"slices"
	"time"
)

// laneQueue is a lane's pending-event queue: pop order is (timestamp, key),
// and nothing else is offered — lanes never pop from the far end, so the
// worker queues' min-max heap (internal/depq, the paper's §4.3 design) would
// pay for an end nobody uses.
//
// The key is mailbox order (see mailbox.go). A direct push — a host's, a
// control event's, or the lane's own — takes the next number of the lane's
// count. A post another lane makes inside a window goes straight in with a
// key from the window's post band: above every key the lane can take in that
// window, in (source lane, send order) within it. close ends the band at the
// barrier, so whatever is pushed afterwards sorts after the window's posts.
//
// What a lane is handed from outside arrives mostly in time order: a whole
// trace of arrivals before the run starts, then each window's posts. add
// appends an event to the monotone run — a FIFO slice read from the front —
// unless it sorts below the run's newest. Only those stragglers and what the
// lane schedules on itself (pushHeap: batch ends and warm-ups, an execution
// ahead of the posts still to come — in the run they would send every later
// post to the heap) enter the binary min-heap, which stays as deep as the
// lane has batches in flight. The front is the smaller of the two heads.
// Popped slots are not cleared: a simulator's queues live for one run, but a
// live server's lanes live as long as the server does, and a stale slot
// there keeps what its event held — the *Request of a receive, the Handler of
// any other event — until a later push overwrites it: at most each lane's
// pending high-water mark of them. That pins nothing extra while the server's
// request slab is never reclaimed; reclaiming the slab (ROADMAP, live-server
// item 2) must account for these slots, by clearing them or by bounding what
// they can reference.
type laneQueue struct {
	heap []laneItem // binary min-heap on (at, key)
	run  []laneItem // run[head:] is pending, in (at, key) order
	head int

	seq   uint64 // the key of the last direct push
	band  uint64 // the open window's lowest post key; 0 while no band is open
	top   uint64 // the open band's highest post key
	posts uint64 // posts in the open band: the send order within a source
}

// A window's post band starts selfRoom keys above the lane's count when its
// first post arrives, room for every event the lane may still push on itself
// in the window (close checks); each source lane's posts take the next
// 1<<srcShift keys up, more than a window can post: its posts are all pending
// at once. A lane's keys only grow, by about selfRoom per window it is posted
// to, so close renumbers the pending events from 1 once they pass renumberAt:
// a long-running lane never runs out of keys.
const (
	selfRoom   = 1 << 40
	srcShift   = 32
	renumberAt = 1 << 62
)

// laneItem is 40 bytes (TestLaneItemSize bounds it): every event of a run is
// copied in and out of one, so a field added to laneEvent is paid per event.
type laneItem struct {
	at  time.Duration
	key uint64
	ev  laneEvent
}

func (a *laneItem) before(b *laneItem) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// push queues a direct push, in the run when it sorts last there.
func (q *laneQueue) push(at time.Duration, ev laneEvent) {
	q.seq++
	q.add(laneItem{at: at, key: q.seq, ev: ev})
}

// pushHeap queues a direct push in the heap whatever the timestamp.
func (q *laneQueue) pushHeap(at time.Duration, ev laneEvent) {
	q.seq++
	q.heapAdd(laneItem{at: at, key: q.seq, ev: ev})
}

// post queues a post from lane src in the open window's band, opening one
// with the window's first.
func (q *laneQueue) post(at time.Duration, src int, ev laneEvent) {
	if q.band == 0 {
		q.band = q.seq + selfRoom
	}
	key := q.band + uint64(src)<<srcShift + q.posts
	q.posts++
	q.top = max(q.top, key)
	q.add(laneItem{at: at, key: key, ev: ev})
}

// posted reports whether it is a post of the open window.
func (q *laneQueue) posted(it *laneItem) bool { return q.band != 0 && it.key >= q.band }

// close ends the open window's band: later pushes sort after its posts.
func (q *laneQueue) close() {
	if q.band == 0 {
		return
	}
	if q.seq >= q.band {
		panic("sched: a lane pushed more events on itself in one window than its post band leaves room for")
	}
	q.seq, q.band, q.top, q.posts = q.top, 0, 0, 0
	if q.seq > renumberAt {
		q.renumber()
	}
}

// renumber gives the pending events the keys 1, 2, ... in their pop order.
// A sorted heap is still a heap, so nothing moves. No band may be open.
func (q *laneQueue) renumber() {
	slices.SortFunc(q.heap, func(a, b laneItem) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.key, b.key)
	})
	h, r := q.heap, q.run[q.head:]
	q.seq = 0
	for len(h) > 0 || len(r) > 0 {
		q.seq++
		if len(r) == 0 || len(h) > 0 && h[0].before(&r[0]) {
			h[0].key, h = q.seq, h[1:]
		} else {
			r[0].key, r = q.seq, r[1:]
		}
	}
}

func (q *laneQueue) add(it laneItem) {
	n := len(q.run)
	if n > q.head && it.before(&q.run[n-1]) {
		q.heapAdd(it)
		return
	}
	if n == cap(q.run) && q.head*2 > n {
		// Full and mostly consumed: slide the pending tail down instead of
		// growing, so a run that never quite drains still reuses its array.
		q.run = q.run[:copy(q.run, q.run[q.head:])]
		q.head = 0
	}
	q.run = append(q.run, it)
}

// reserve makes room in the run for n more events: a whole trace of arrivals
// then lands in one array instead of growing it a quarter at a time.
func (q *laneQueue) reserve(n int) {
	q.run = append(make([]laneItem, 0, len(q.run)+n), q.run...)
}

func (q *laneQueue) heapAdd(it laneItem) {
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

func (q *laneQueue) len() int { return len(q.heap) + len(q.run) - q.head }

// front returns the pending event that pops next, nil when there is none,
// and whether it heads the heap, which is what take needs to know.
func (q *laneQueue) front() (*laneItem, bool) {
	switch {
	case q.head == len(q.run):
		if len(q.heap) == 0 {
			return nil, false
		}
		return &q.heap[0], true
	case len(q.heap) > 0 && q.heap[0].before(&q.run[q.head]):
		return &q.heap[0], true
	default:
		return &q.run[q.head], false
	}
}

// take removes the event front returned; inHeap is what front reported.
func (q *laneQueue) take(inHeap bool) {
	if inHeap {
		q.heapPop()
		return
	}
	if q.head++; q.head == len(q.run) {
		q.run, q.head = q.run[:0], 0 // drained: the next run starts at the front
	}
}

// peek returns the earliest pending timestamp.
func (q *laneQueue) peek() (time.Duration, bool) {
	if it, _ := q.front(); it != nil {
		return it.at, true
	}
	return 0, false
}

func (q *laneQueue) heapPop() {
	h := q.heap
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
}
