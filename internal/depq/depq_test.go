package depq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := New[string]()
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	if _, _, ok := q.PopMin(); ok {
		t.Fatal("PopMin on empty returned ok")
	}
	if _, _, ok := q.PopMax(); ok {
		t.Fatal("PopMax on empty returned ok")
	}
	if _, _, ok := q.PeekMin(); ok {
		t.Fatal("PeekMin on empty returned ok")
	}
}

func TestSingleElement(t *testing.T) {
	q := New[string]()
	q.Push("a", 5)
	if v, k, ok := q.PeekMin(); !ok || v != "a" || k != 5 {
		t.Fatalf("PeekMin = %v %v %v", v, k, ok)
	}
	if v, _, ok := q.PopMax(); !ok || v != "a" {
		t.Fatalf("PopMax = %v %v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after pop")
	}
}

func TestTwoElements(t *testing.T) {
	q := New[int]()
	q.Push(1, 10)
	q.Push(2, 3)
	if v, _, _ := q.PeekMin(); v != 2 {
		t.Fatalf("PeekMin = %d, want 2", v)
	}
	if v, _, _ := q.PopMax(); v != 1 {
		t.Fatalf("PopMax = %d, want 1", v)
	}
}

func TestPopMinAscending(t *testing.T) {
	q := New[int]()
	keys := []int64{5, 3, 9, 1, 7, 2, 8, 6, 4, 0}
	for i, k := range keys {
		q.Push(i, k)
	}
	var got []int64
	for {
		_, k, ok := q.PopMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("PopMin sequence not ascending: %v", got)
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("popped %d, want %d", len(got), len(keys))
	}
}

func TestPopMaxDescending(t *testing.T) {
	q := New[int]()
	keys := []int64{5, 3, 9, 1, 7, 2, 8, 6, 4, 0}
	for i, k := range keys {
		q.Push(i, k)
	}
	var got []int64
	for {
		_, k, ok := q.PopMax()
		if !ok {
			break
		}
		got = append(got, k)
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("PopMax sequence not descending: %v", got)
		}
	}
}

func TestTiesPopFIFO(t *testing.T) {
	q := New[int]()
	for i := 0; i < 5; i++ {
		q.Push(i, 42)
	}
	for i := 0; i < 5; i++ {
		v, _, ok := q.PopMin()
		if !ok || v != i {
			t.Fatalf("tie pop %d = %d, want insertion order", i, v)
		}
	}
}

func TestDrain(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		q.Push(i, int64(i))
	}
	out := q.Drain()
	if len(out) != 10 || q.Len() != 0 {
		t.Fatalf("drain len = %d, q len = %d", len(out), q.Len())
	}
	sort.Ints(out)
	for i, v := range out {
		if v != i {
			t.Fatalf("drain lost values: %v", out)
		}
	}
}

// model-based test: interleaved random ops vs a sorted-slice reference.
func TestModelBasedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	q := New[int64]()
	var model []int64 // kept sorted
	insert := func(k int64) {
		i := sort.Search(len(model), func(i int) bool { return model[i] > k })
		model = append(model, 0)
		copy(model[i+1:], model[i:])
		model[i] = k
	}
	for op := 0; op < 50000; op++ {
		switch r := rng.Intn(4); {
		case r == 0 || len(model) == 0:
			k := int64(rng.Intn(1000))
			q.Push(k, k)
			insert(k)
		case r == 1:
			_, k, ok := q.PopMin()
			if !ok || k != model[0] {
				t.Fatalf("op %d: PopMin = %d ok=%v, want %d", op, k, ok, model[0])
			}
			model = model[1:]
		case r == 2:
			_, k, ok := q.PopMax()
			if !ok || k != model[len(model)-1] {
				t.Fatalf("op %d: PopMax = %d ok=%v, want %d", op, k, ok, model[len(model)-1])
			}
			model = model[:len(model)-1]
		default:
			if _, k, _ := q.PeekMin(); k != model[0] {
				t.Fatalf("op %d: PeekMin = %d, want %d", op, k, model[0])
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("op %d: len %d vs model %d", op, q.Len(), len(model))
		}
	}
}

// Property: pushing arbitrary keys then alternately popping min and max
// consumes keys from both ends of the sorted order.
func TestPropertyAlternatingPops(t *testing.T) {
	f := func(keys []int64) bool {
		q := New[int]()
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, k := range keys {
			q.Push(i, k)
		}
		lo, hi := 0, len(sorted)-1
		for i := 0; lo <= hi; i++ {
			if i%2 == 0 {
				_, k, ok := q.PopMin()
				if !ok || k != sorted[lo] {
					return false
				}
				lo++
			} else {
				_, k, ok := q.PopMax()
				if !ok || k != sorted[hi] {
					return false
				}
				hi--
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: min-max heap level invariant holds after every push.
func TestPropertyHeapInvariant(t *testing.T) {
	f := func(keys []int64) bool {
		q := New[int]()
		for i, k := range keys {
			q.Push(i, k)
			if !checkInvariant(q) {
				return false
			}
		}
		// and after interleaved pops
		for q.Len() > 0 {
			if q.Len()%2 == 0 {
				q.PopMin()
			} else {
				q.PopMax()
			}
			if !checkInvariant(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariant verifies every node on a min level is <= all descendants and
// every node on a max level is >= all descendants.
func checkInvariant(q *DEPQ[int]) bool {
	n := len(q.h)
	var walk func(root, i int, min bool) bool
	walk = func(root, i int, min bool) bool {
		if i >= n {
			return true
		}
		if i != root {
			if min && q.h[i].key < q.h[root].key {
				return false
			}
			if !min && q.h[i].key > q.h[root].key {
				return false
			}
		}
		return walk(root, 2*i+1, min) && walk(root, 2*i+2, min)
	}
	for i := 0; i < n; i++ {
		if !walk(i, i, isMinLevel(i)) {
			return false
		}
	}
	return true
}

func TestFIFOOrder(t *testing.T) {
	q := new(FIFO[int])
	for i := 0; i < 10; i++ {
		q.Push(i, int64(100-i)) // keys deliberately reversed: must not matter
	}
	for i := 0; i < 5; i++ {
		v, _, ok := q.PopMin()
		if !ok || v != i {
			t.Fatalf("FIFO PopMin = %d, want %d", v, i)
		}
	}
	for i := 5; i < 10; i++ {
		v, _, ok := q.PopMax()
		if !ok || v != i {
			t.Fatalf("FIFO PopMax = %d, want %d (arrival order)", v, i)
		}
	}
	if _, _, ok := q.PopMin(); ok {
		t.Fatal("empty FIFO popped")
	}
}

func TestFIFOPeekAndDrain(t *testing.T) {
	q := new(FIFO[string])
	q.Push("a", 1)
	q.Push("b", 2)
	if v, _, _ := q.PeekMin(); v != "a" {
		t.Fatalf("PeekMin = %v", v)
	}
	out := q.Drain()
	if len(out) != 2 || out[0] != "a" || out[1] != "b" {
		t.Fatalf("drain = %v", out)
	}
}

func TestFIFOCompaction(t *testing.T) {
	q := new(FIFO[int])
	for i := 0; i < 100000; i++ {
		q.Push(i, 0)
		if i%2 == 1 {
			q.PopMin()
		}
	}
	if len(q.buf)-q.head != q.Len() {
		t.Fatal("length accounting broken")
	}
	if len(q.buf) > 3*q.Len()+2048 {
		t.Fatalf("FIFO failed to compact: backing %d for %d live", len(q.buf), q.Len())
	}
}

// TestFIFOReusesItsArray: a queue that drains between bursts — a worker's
// queue, most of the time — refills the array it has from the front instead
// of growing past its dead prefix until the next compaction.
func TestFIFOReusesItsArray(t *testing.T) {
	q := new(FIFO[int])
	next, want := 0, 0
	burst := func() { // fills to 8, drains to empty
		for i := 0; i < 8; i++ {
			q.Push(next, 0)
			next++
		}
		for q.Len() > 0 {
			if v, _, ok := q.PopMin(); !ok || v != want {
				t.Fatalf("pop = %d, %v; want %d", v, ok, want)
			}
			want++
		}
	}
	burst()
	if avg := testing.AllocsPerRun(1000, burst); avg != 0 {
		t.Fatalf("a draining FIFO allocates %.2f per burst, want 0", avg)
	}
	if q.head != 0 || len(q.buf) != 0 || cap(q.buf) > 16 {
		t.Fatalf("drained FIFO: head %d len %d cap %d, want the front of a small array", q.head, len(q.buf), cap(q.buf))
	}
}

// TestAllocsFIFOCycle: a warmed FIFO held at a steady depth, one push and
// one pop at a time, compacts in place — it allocates nothing however many
// compactions it goes through — keeps arrival order across them, and leaves
// no stale copy of a value behind its live tail.
func TestAllocsFIFOCycle(t *testing.T) {
	const depth = 1500 // past the compaction threshold, so cycles compact
	q := new(FIFO[*int])
	vals := make([]int, 3*depth)
	next, want := 0, 0
	push := func() {
		q.Push(&vals[next%len(vals)], 0)
		next++
	}
	for q.Len() < depth {
		push()
	}
	cycles := func() {
		for i := 0; i < 4*depth; i++ { // two compactions or more
			push()
			if v, _, ok := q.PopMin(); !ok || v != &vals[want%len(vals)] {
				t.Fatalf("pop %d out of arrival order", want)
			}
			want++
		}
	}
	cycles()
	if avg := testing.AllocsPerRun(10, cycles); avg != 0 {
		t.Fatalf("a steady FIFO allocates %.2f per %d push/pop cycles, want 0", avg, 4*depth)
	}
	for i, e := range q.buf[len(q.buf):cap(q.buf)] {
		if e.value != nil {
			t.Fatalf("slot %d past the live tail still holds a value", len(q.buf)+i)
		}
	}
}

// Both implementations satisfy the Queue interface.
var (
	_ Queue[int] = (*DEPQ[int])(nil)
	_ Queue[int] = (*FIFO[int])(nil)
)

func BenchmarkDEPQPushPopMin(b *testing.B) {
	q := New[int]()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
		if q.Len() > 1024 {
			q.PopMin()
		}
	}
}

func BenchmarkDEPQPushPopBothEnds(b *testing.B) {
	q := New[int]()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
		if q.Len() > 1024 {
			if i%2 == 0 {
				q.PopMin()
			} else {
				q.PopMax()
			}
		}
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	q := new(FIFO[int])
	for i := 0; i < b.N; i++ {
		q.Push(i, 0)
		if q.Len() > 1024 {
			q.PopMin()
		}
	}
}
