package sched

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// scanLeastLoaded is the dispatcher as it was before the table: walk the
// workers, skip the inactive, keep the first with strictly less load.
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
// after every single event that the dispatch table says what the workers say:
// loads[i] is workers[i].load() for an active worker and the sentinel for any
// other, and the table's argmin is the worker the pointer scan picks.
func TestDispatchTableTracksWorkers(t *testing.T) {
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
	// Cold starts short enough to end while traffic still flows, and room
	// to grow past the initial pool.
	cl.coldStart, cl.maxWorkers = 300*time.Millisecond, 8

	// Three seconds of heavy traffic, three of a trickle, three heavy again.
	const horizon = 9 * time.Second
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

	var events, sawIdle, sawDead, sawCold int
	for {
		at, ok := man.q.peek()
		if !ok || at > horizon+time.Minute {
			break
		}
		ev := man.q.pop()
		man.now = at
		ev.fire(at)
		events++
		for _, m := range cl.modules {
			if len(m.loads) != len(m.workers) {
				t.Fatalf("event %d (op %d): module %d has %d workers and %d table entries", events, ev.op, m.idx, len(m.workers), len(m.loads))
			}
			for i, w := range m.workers {
				want := int32(ineligible)
				switch {
				case w.active:
					want = int32(w.load())
				case w.dead:
					sawDead++
				default:
					sawIdle++
				}
				if w.coldUntil > 0 {
					sawCold++
				}
				if m.loads[i] != want {
					t.Fatalf("event %d (op %d at %v): module %d worker %d (active %t, dead %t, load %d) has table entry %d, want %d",
						events, ev.op, at, m.idx, i, w.active, w.dead, w.load(), m.loads[i], want)
				}
			}
			if got, want := m.leastLoaded(), scanLeastLoaded(m); got != want {
				t.Fatalf("event %d (op %d at %v): module %d dispatches to worker %d, the pointer scan to %d", events, ev.op, at, m.idx, got, want)
			}
		}
	}
	if sawIdle == 0 || sawDead == 0 || sawCold == 0 {
		t.Fatalf("the run never exercised deactivation (%d), a crash (%d) and a cold start (%d) together", sawIdle, sawDead, sawCold)
	}
	for _, r := range reqs {
		if !r.Dropped && !r.Finished {
			t.Fatalf("request %d never terminated", r.ID)
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
		man.Drain()
		if top.busy || len(top.forming) != 0 || top.queue.Len() != 0 {
			t.Fatalf("%s: the scaled-down worker did not drain", pol)
		}
	}
}
