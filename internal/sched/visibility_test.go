package sched

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// visibilityCluster builds spec on the lane engine with a 1 ms lookahead and
// records every OnDrop as "drop id@module at instant".
func visibilityCluster(t *testing.T, spec *pipeline.Spec, policy string) (*Cluster, *LaneExecutor, *[]string) {
	t.Helper()
	x := NewLaneExecutor(spec.N(), time.Millisecond)
	workers := make([]int, spec.N())
	for k := range workers {
		workers[k] = 1
	}
	var log []string
	cl, err := New(Config{
		Spec: spec, Lib: profile.DefaultLibrary(), PolicyName: policy, Seed: 1,
		Workers: workers, NetDelay: time.Millisecond,
		OnDrop: func(req *Request, module int, now time.Duration) {
			log = append(log, fmt.Sprintf("drop %d@%d at %v", req.ID, module, now))
		},
	}, x)
	if err != nil {
		t.Fatal(err)
	}
	return cl, x, &log
}

// checkVisibility pins when a lane-mode drop becomes visible, for two
// modules a < b of spec and a third module c: the deciding module sees its
// own drop at once, for the rest of its window; any other module sees it only
// after the barrier. When a and b both drop the request in one window, it
// commits once, at the module first in (time, module) order, and counts one
// drop there. Lanes run in module order, so b's lane runs after a's inside a
// window, whatever their timestamps.
func checkVisibility(t *testing.T, spec *pipeline.Spec, a, b, c int) {
	const (
		t0   = 10 * time.Millisecond
		half = 500 * time.Microsecond
		next = t0 + 2*time.Millisecond // past the window [t0, t0+1ms)
	)
	cases := []struct {
		name     string
		aAt, bAt time.Duration // 0: the module does not drop
		winner   int
		winnerAt time.Duration
	}{
		{name: "a alone", aAt: t0, winner: a, winnerAt: t0},
		{name: "both, b earlier", aAt: t0 + half, bAt: t0, winner: b, winnerAt: t0},
		{name: "both, same instant", aAt: t0, bAt: t0, winner: a, winnerAt: t0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, x, log := visibilityCluster(t, spec, "naive")
			req := &Request{ID: 7, Deadline: time.Hour}
			lane := func(k int, at time.Duration, fn func(now time.Duration)) {
				x.scheduleLaneEvent(-1, k, at, fnEvent(fn))
			}
			check := func(k int, want bool, when string) {
				t.Helper()
				if got := cl.retired(req, k); got != want {
					t.Errorf("%s: module %d sees the request retired = %t, want %t", when, k, got, want)
				}
			}
			if tc.aAt > 0 {
				lane(a, tc.aAt, func(now time.Duration) {
					check(a, false, "before a's drop")
					cl.drop(req, a, now)
					check(a, true, "a's own drop, at once")
				})
				lane(a, t0+3*half/2, func(time.Duration) { check(a, true, "a, later in the window of its drop") })
			}
			bAt := tc.bAt
			if bAt == 0 {
				bAt = t0 // b only looks
			}
			lane(b, bAt, func(now time.Duration) {
				check(b, false, "b, in the window of a's drop")
				if tc.bAt > 0 {
					cl.drop(req, b, now)
					check(b, true, "b's own drop, at once")
					check(a, tc.aAt > 0, "a, after b also dropped")
				}
			})
			lane(c, t0+half, func(time.Duration) { check(c, false, "c, in the window of the drops") })
			for _, k := range []int{a, b, c} {
				lane(k, next, func(time.Duration) { check(k, true, "after the barrier") })
			}
			x.Run()
			want := []string{fmt.Sprintf("drop 7@%d at %v", tc.winner, tc.winnerAt)}
			if !reflect.DeepEqual(*log, want) {
				t.Errorf("OnDrop saw %v, want %v", *log, want)
			}
			if !req.Dropped || req.DropModule != tc.winner || req.DropAt != tc.winnerAt {
				t.Errorf("request dropped=%t at module %d, %v; want module %d, %v", req.Dropped, req.DropModule, req.DropAt, tc.winner, tc.winnerAt)
			}
			for k, m := range cl.modules {
				if want := boolInt(k == tc.winner); m.drops != want {
					t.Errorf("module %d counts %d drops, want %d", k, m.drops, want)
				}
			}
		})
	}

	// Inside a control event every module sees every pending termination at
	// once; the event's end commits it.
	t.Run("control event", func(t *testing.T) {
		cl, x, log := visibilityCluster(t, spec, "naive")
		req := &Request{ID: 7, Deadline: time.Hour}
		x.Schedule(t0, "crash", func(now time.Duration) {
			cl.control(func() {
				cl.drop(req, b, now)
				for _, k := range []int{a, b, c} {
					if !cl.retired(req, k) {
						t.Errorf("module %d does not see module %d's drop inside the control event", k, b)
					}
				}
			})
			if len(*log) != 0 || req.Dropped {
				t.Error("a control event's drop committed before the event ended")
			}
		})
		x.Run()
		if want := []string{fmt.Sprintf("drop 7@%d at %v", b, t0)}; !reflect.DeepEqual(*log, want) {
			t.Errorf("OnDrop saw %v, want %v", *log, want)
		}
	})
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTerminationVisibility pins the lane engine's visibility contract for
// terminations, which the pending marks on a Request carry: on DA, between
// the sibling branches poserec (1) and facerec (2), with the merge module
// (3) as a bystander; and on a 70-module chain, between modules past the
// 64th.
func TestTerminationVisibility(t *testing.T) {
	t.Run("da", func(t *testing.T) { checkVisibility(t, pipeline.DA(), 1, 2, 3) })
	long := pipeline.Uniform("long", 70, "eyetrack", 3*time.Second)
	t.Run("chain70", func(t *testing.T) { checkVisibility(t, long, 65, 69, 66) })
}

// TestLongPipelineTerminatesOnce drives a 70-module chain at overload under
// pard, with drops decided at many modules: every request ends exactly once,
// as a drop or a completion, and the modules' drop counts add up to the
// drops the host saw.
func TestLongPipelineTerminatesOnce(t *testing.T) {
	const n = 1000
	spec := pipeline.Uniform("long", 70, "eyetrack", 3*time.Second)
	cl, x, log := visibilityCluster(t, spec, "pard")
	done := 0
	cl.cfg.OnDone = func(*Request, time.Duration) { done++ }
	reqs := make([]Request, n)
	for i := range reqs {
		send := time.Duration(i) * time.Second / 800
		reqs[i] = Request{ID: uint64(i), Send: send, Deadline: send + spec.SLO}
		cl.Inject(&reqs[i], send)
	}
	x.Ticker(500*time.Millisecond, "sync", func(now time.Duration) bool {
		cl.SyncTick(now)
		return done+len(*log) < n
	})
	x.Run()
	dropped, past64 := 0, 0
	for i := range reqs {
		r := &reqs[i]
		if r.Dropped == r.Finished {
			t.Fatalf("request %d: dropped=%t finished=%t", i, r.Dropped, r.Finished)
		}
		if r.pendMod != 0 || r.pendMore {
			t.Fatalf("request %d keeps a pending mark after the run", i)
		}
		if r.Dropped {
			dropped++
			if r.DropModule >= 64 {
				past64++
			}
		}
	}
	counted := 0
	for _, m := range cl.modules {
		counted += m.drops
	}
	if dropped != len(*log) || counted != dropped || done+dropped != n {
		t.Fatalf("%d dropped, %d OnDrop calls, %d counted at modules, %d done of %d", dropped, len(*log), counted, done, n)
	}
	if dropped == 0 || dropped == n {
		t.Fatalf("%d of %d dropped: the run puts no pressure on the marks", dropped, n)
	}
	t.Logf("%d of %d dropped, %d of them past module 63", dropped, n, past64)
}
