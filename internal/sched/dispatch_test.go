package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// scanLeastLoaded is the dispatcher as it was before the dispatch tree: walk
// the workers, skip the inactive, keep the first with strictly less load.
func scanLeastLoaded(m *module) int {
	best := -1
	for i, w := range m.workers {
		if !w.active {
			continue
		}
		if best < 0 || w.load() < m.workers[best].load() {
			best = i
		}
	}
	return best
}

// checkTree reports where module m's dispatch tree disagrees with its
// workers: a leaf that is not its worker's load (or the ineligible sentinel)
// above its id, a leaf past the pool that is not empty, or an inner node that
// is not the smaller of its children.
func checkTree(m *module) error {
	size := len(m.tree) / 2
	if size < len(m.workers) || size&(size-1) != 0 {
		return fmt.Errorf("%d leaves for %d workers", size, len(m.workers))
	}
	for id := range size {
		want := uint64(noWorker)
		if id < len(m.workers) {
			w := m.workers[id]
			l := uint64(ineligible)
			if w.active {
				l = uint64(w.load())
			}
			want = l<<32 | uint64(id)
		}
		if got := m.tree[size+id]; got != want {
			return fmt.Errorf("leaf %d holds load %d id %d, want load %d id %d", id, got>>32, uint32(got), want>>32, uint32(want))
		}
	}
	for i := size - 1; i > 0; i-- {
		if want := min(m.tree[2*i], m.tree[2*i+1]); m.tree[i] != want {
			return fmt.Errorf("node %d holds %#x, its children's winner is %#x", i, m.tree[i], want)
		}
	}
	return nil
}

// FuzzDispatchTable runs a program of pool changes against one module and,
// after every step, holds its dispatch tree to its workers (checkTree) and
// its pick to the pointer scan's. The first byte sizes the initial pool (one
// to eight workers); then each pair of bytes is an op and its argument:
//
//	0  push a request onto worker arg's queue (its load rises)
//	1  pop one from worker arg's queue (its load falls)
//	2  scale down to active − 1 − arg%3 workers (deactivation; 0 is allowed)
//	3  crash 1 + arg%2 workers
//	4  scale up to active + 1 + arg%4 (reactivation first, then cold new ones)
//	5  add 1 + arg%5 workers, cold when arg is odd
//
// Growth stops at 256 workers.
func FuzzDispatchTable(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 1, 2})                         // loads rise and fall, lowest id wins ties
	f.Add([]byte{7, 2, 0, 2, 9, 4, 1, 0, 7, 0, 7})                   // scale down to none, then reactivate
	f.Add([]byte{4, 0, 1, 0, 2, 3, 1, 3, 0, 4, 3, 0, 3})             // crashes, then cold replacements
	f.Add([]byte{1, 5, 4, 5, 3, 5, 0, 0, 5, 0, 6, 1, 2, 2, 1, 4, 2}) // growth past one and two powers of two
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 1<<12 {
			prog = prog[:1<<12]
		}
		man := NewManualExecutor()
		spec := pipeline.TM()
		workers := make([]int, spec.N())
		for k := range workers {
			workers[k] = 1
		}
		workers[0] = 1 + int(prog[0])%8
		cl, err := New(Config{Spec: spec, Lib: profile.DefaultLibrary(), Seed: 1, Workers: workers}, man)
		if err != nil {
			t.Fatal(err)
		}
		m := cl.modules[0]
		var now time.Duration
		var id uint64
		for pc := 1; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%6, int(prog[pc+1])
			w := m.workers[arg%len(m.workers)]
			now += time.Millisecond
			switch op {
			case 0:
				id++
				w.queue.Push(entry{req: &Request{ID: id, Deadline: now + spec.SLO}, arrive: now}, int64(now+spec.SLO))
				w.noteLoad()
			case 1:
				if w.queue.Len() > 0 {
					w.queue.PopMin()
					w.noteLoad()
				}
			case 2:
				m.applyScale(now, max(m.activeWorkers()-1-arg%3, 0))
			case 3:
				m.crash(now, 1+arg%2)
			case 4:
				if desired := m.activeWorkers() + 1 + arg%4; desired+len(m.workers) <= 256 {
					m.applyScale(now, desired)
				}
			case 5:
				if n := 1 + arg%5; len(m.workers)+n <= 256 {
					m.addWorkers(n, now, arg%2 == 1)
				}
			}
			if err := checkTree(m); err != nil {
				t.Fatalf("step %d (op %d, arg %d): %v", pc/2, op, arg, err)
			}
			if got, want := m.leastLoaded(), scanLeastLoaded(m); got != want {
				t.Fatalf("step %d (op %d, arg %d): the tree picks worker %d, the scan %d", pc/2, op, arg, got, want)
			}
		}
	})
}

// TestNewRefusesWorkerCounts: a module with no worker would drop every
// request, and a negative or huge count once sized a pool's slabs into a
// panic (the live server's -workers reaches New unchecked).
func TestNewRefusesWorkerCounts(t *testing.T) {
	for _, bad := range []int{0, -1, PoolLimit + 1} {
		_, err := New(Config{Spec: pipeline.TM(), Lib: profile.DefaultLibrary(), Workers: []int{1, bad, 1}}, NewManualExecutor())
		if err == nil || !strings.Contains(err.Error(), "workers outside") {
			t.Errorf("New with %d workers for module 1 = %v, want a refusal", bad, err)
		}
	}
}

// TestDispatchTableTracksWorkers steps a cluster one event at a time through
// a load that swings hard enough for the scaling engine to cold-start,
// deactivate and reactivate workers, with machine failures on top, and checks
// after every single event that the dispatch tree says what the workers say
// (checkTree), and that its root is the worker the pointer scan picks.
func TestDispatchTableTracksWorkers(t *testing.T) {
	const horizon = 9 * time.Second
	build := func() (*LaneExecutor, *Cluster, []*Request) {
		man := NewManualExecutor()
		spec := pipeline.LV()
		workers := make([]int, spec.N())
		for k := range workers {
			workers[k] = 3
		}
		cl, err := New(Config{
			Spec: spec, Lib: profile.DefaultLibrary(), PolicyName: "pard", Seed: 3,
			Workers: workers, NetDelay: time.Millisecond,
		}, man)
		if err != nil {
			t.Fatal(err)
		}
		// Cold starts short enough to end while traffic still flows, and
		// room to grow past the initial pool.
		cl.coldStart, cl.maxWorkers = 300*time.Millisecond, 8

		// Three seconds of heavy traffic, three of a trickle, three heavy
		// again.
		rng := rand.New(rand.NewSource(11))
		var reqs []*Request
		for at := time.Duration(0); at < horizon; {
			rate := 600.0
			if at >= 3*time.Second && at < 6*time.Second {
				rate = 20
			}
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			reqs = append(reqs, &Request{ID: uint64(len(reqs)), Send: at, Deadline: at + spec.SLO})
		}
		for _, r := range reqs {
			cl.Inject(r, r.Send)
		}
		for at := 100 * time.Millisecond; at < horizon; at += 100 * time.Millisecond {
			man.Schedule(at, "sync", cl.SyncTick)
			if at%(500*time.Millisecond) == 0 {
				man.Schedule(at, "scale", cl.ScaleTick)
			}
			if at%(1700*time.Millisecond) == 0 {
				k := rng.Intn(spec.N())
				man.Schedule(at, "crash", func(now time.Duration) { cl.Crash(k, now, 1) })
			}
		}
		return man, cl, reqs
	}
	man, cl, reqs := build()

	var events, sawIdle, sawDead, sawCold int
	check := func(ev *laneEvent, at time.Duration) {
		events++
		for _, m := range cl.modules {
			if err := checkTree(m); err != nil {
				t.Fatalf("event %d (%T at %v): module %d: %v", events, ev.h, at, m.idx, err)
			}
			for _, w := range m.workers {
				switch {
				case w.active:
				case w.dead:
					sawDead++
				default:
					sawIdle++
				}
				if w.coldUntil > 0 {
					sawCold++
				}
			}
			if got, want := m.leastLoaded(), scanLeastLoaded(m); got != want {
				t.Fatalf("event %d (%T at %v): module %d dispatches to worker %d, the pointer scan to %d", events, ev.h, at, m.idx, got, want)
			}
		}
	}
	barrier := func() {
		if err := man.barrierFn(); err != nil {
			t.Fatal(err)
		}
	}
	// Step by step as runTo does, but with step's two loops — the control
	// round's and each lane's (laneState.run) — spelled out, to check after
	// every event.
	man.running = true
	for {
		tCtrl, okC, tLane, okL := man.next()
		if !okC && !okL || stepAt(tCtrl, okC, tLane, okL) > horizon+time.Minute {
			break
		}
		if okC && (!okL || tCtrl <= tLane) {
			man.frontier, man.now = tCtrl, max(man.now, tCtrl)
			for at, ok := man.ctrl.q.peek(); ok && at == tCtrl; at, ok = man.ctrl.q.peek() {
				ev := man.ctrl.q.pop()
				man.ctrl.now = tCtrl
				man.ctrl.fired++
				ev.h.Fire(tCtrl)
				barrier()
				check(&ev, tCtrl)
			}
			continue
		}
		man.now = max(man.now, tLane)
		hi := tLane + man.lookahead
		if okC && tCtrl < hi {
			hi = tCtrl
		}
		hi = max(hi, tLane)
		for _, l := range man.lanes {
			for {
				it, inHeap := l.q.front()
				if it == nil || (it.at >= hi && it.at != tLane) || l.q.posted(it) {
					break
				}
				ev := it.ev
				l.now = max(l.now, it.at)
				l.q.take(inHeap)
				l.fired++
				if ev.h != nil {
					ev.h.Fire(l.now)
				} else {
					l.m.receive(ev.req, l.now)
				}
				check(&ev, l.now)
			}
		}
		barrier()
		man.frontier = max(man.frontier, hi)
	}
	man.running = false
	if sawIdle == 0 || sawDead == 0 || sawCold == 0 {
		t.Fatalf("the run never exercised deactivation (%d), a crash (%d) and a cold start (%d) together", sawIdle, sawDead, sawCold)
	}
	for _, r := range reqs {
		if !r.Dropped && !r.Finished {
			t.Fatalf("request %d never terminated", r.ID)
		}
	}
	// The loop above is step's: the same run through Run decides every
	// request alike.
	ref, _, refReqs := build()
	ref.RunUntil(horizon + time.Minute)
	if ref.Fired() != man.Fired() {
		t.Fatalf("RunUntil fired %d events, the checked loop %d", ref.Fired(), man.Fired())
	}
	for i, r := range reqs {
		q := refReqs[i]
		if r.Dropped != q.Dropped || r.DropModule != q.DropModule || r.DropAt != q.DropAt || r.Finished != q.Finished || r.DoneAt != q.DoneAt {
			t.Fatalf("request %d: the checked loop ended it %+v, RunUntil %+v", r.ID, *r, *q)
		}
	}
	t.Logf("%d events, %d requests", events, len(reqs))
}

// TestCrashClearsWorker: a crashed worker's batch slabs keep no request
// alive, and clearing them touches no other worker's. The slabs are carved
// from storage the module's other workers keep reachable, so crash clears
// them as it drops their requests; each is capped at one target batch, so a
// scaled-down neighbour still draining its batches keeps them whole.
func TestCrashClearsWorker(t *testing.T) {
	for _, pol := range []string{"pard", "nexus"} {
		man := NewManualExecutor()
		spec := pipeline.LV()
		cl, err := New(Config{
			Spec: spec, Lib: profile.DefaultLibrary(), PolicyName: pol, Seed: 1,
			Workers: []int{3, 3, 3, 3, 3},
		}, man)
		if err != nil {
			t.Fatal(err)
		}
		m := cl.modules[spec.Source()]
		for _, w := range m.workers {
			if cap(w.forming) != m.targetBatch || cap(w.spare) != m.targetBatch {
				t.Fatalf("%s: worker %d slabs have room %d and %d, want %d each", pol, w.id, cap(w.forming), cap(w.spare), m.targetBatch)
			}
		}
		for i := 0; i < 9*m.targetBatch; i++ {
			cl.Inject(&Request{ID: uint64(i), Deadline: 10 * spec.SLO}, 0)
		}
		man.RunUntil(0)
		for _, w := range m.workers {
			if len(w.executing) == 0 || len(w.forming) == 0 || w.queue.Len() == 0 {
				t.Fatalf("%s: worker %d holds %d executing, %d forming, %d queued: nothing to crash", pol, w.id, len(w.executing), len(w.forming), w.queue.Len())
			}
		}
		// Scale the top worker down: it stops taking work but drains what it
		// holds. Then crash the worker below it.
		m.applyScale(0, 2)
		top, w := m.workers[2], m.workers[1]
		if top.active {
			t.Fatalf("%s: the top worker is still active", pol)
		}
		slabs := [][]batchMember{w.forming[:cap(w.forming)], w.executing[:cap(w.executing)]}
		if cl.Crash(m.idx, 0, 1) != 1 || !w.dead || top.dead {
			t.Fatalf("%s: crash did not kill exactly the worker below the top", pol)
		}
		for _, s := range slabs {
			for i, mem := range s {
				if mem.e.req != nil {
					t.Fatalf("%s: slot %d of a crashed worker's slab still holds request %d", pol, i, mem.e.req.ID)
				}
			}
		}
		for _, b := range [][]batchMember{top.executing, top.forming} {
			for i, mem := range b {
				if mem.e.req == nil {
					t.Fatalf("%s: member %d of the scaled-down worker's batch was wiped by its neighbour's crash", pol, i)
				}
			}
		}
		man.Run()
		if top.busy || len(top.forming) != 0 || top.queue.Len() != 0 {
			t.Fatalf("%s: the scaled-down worker did not drain", pol)
		}
	}
}
