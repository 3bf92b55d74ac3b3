package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scheduleLane registers fn on lane dst at absolute time at: the closure form
// of scheduleLaneEvent, for scripted tests. name labels the call site only.
func (x *LaneExecutor) scheduleLane(src, dst int, at time.Duration, name string, fn func(time.Duration)) {
	x.scheduleLaneEvent(src, dst, at, fnEvent(fn))
}

// logOf runs a scripted cascade on a fresh executor and returns the per-lane
// firing logs plus the control log. The script seeds initial events; each
// lane callback appends "name@time" to its lane's log.
func logOf(t *testing.T, lanes int, lookahead time.Duration, script func(x *LaneExecutor, logs [][]string) [][]string) ([][]string, uint64) {
	t.Helper()
	x := NewLaneExecutor(lanes, lookahead)
	logs := make([][]string, lanes+1) // logs[lanes] is the control log
	logs = script(x, logs)
	x.Run()
	return logs, x.Fired()
}

// TestShardedExecutorLaneOrder verifies the per-lane contract: events fire
// in (timestamp, insertion order) order, including events scheduled from
// callbacks, and lane-past schedules clamp to the lane's present.
func TestShardedExecutorLaneOrder(t *testing.T) {
	script := func(x *LaneExecutor, logs [][]string) [][]string {
		note := func(lane int, name string) func(time.Duration) {
			return func(now time.Duration) {
				logs[lane] = append(logs[lane], fmt.Sprintf("%s@%v", name, now))
			}
		}
		x.scheduleLane(-1, 0, 30, "c", note(0, "c"))
		x.scheduleLane(-1, 0, 10, "a", note(0, "a"))
		x.scheduleLane(-1, 0, 10, "b", func(now time.Duration) {
			note(0, "b")(now)
			// Same-lane child in the past: clamps to the lane's present and
			// fires after already-queued same-time events.
			x.scheduleLane(0, 0, 5, "clamped", note(0, "clamped"))
			x.scheduleLane(0, 0, 20, "mid", note(0, "mid"))
		})
		return logs
	}
	logs, fired := logOf(t, 1, 5, script)
	want := []string{"a@10ns", "b@10ns", "clamped@10ns", "mid@20ns", "c@30ns"}
	if !reflect.DeepEqual(logs[0], want) {
		t.Fatalf("lane order = %v, want %v", logs[0], want)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

// TestShardedExecutorMailboxOrder verifies cross-lane delivery order: posts
// are keyed by (time, source module, send sequence), independent of which
// lane executed first.
func TestShardedExecutorMailboxOrder(t *testing.T) {
	const lookahead = 10
	script := func(x *LaneExecutor, logs [][]string) [][]string {
		recv := func(tag string) func(time.Duration) {
			return func(now time.Duration) {
				logs[2] = append(logs[2], fmt.Sprintf("%s@%v", tag, now))
			}
		}
		// Lanes 0 and 1 both run an event at t=0 posting to lane 2 at
		// t=10. Lane 1 is seeded FIRST, so naive insertion order would
		// deliver src1 first; mailbox order must put src0 first.
		x.scheduleLane(-1, 1, 0, "s1", func(now time.Duration) {
			x.scheduleLane(1, 2, now+lookahead, "from1", recv("from1"))
			x.scheduleLane(1, 2, now+lookahead, "from1b", recv("from1b"))
		})
		x.scheduleLane(-1, 0, 0, "s0", func(now time.Duration) {
			x.scheduleLane(0, 2, now+lookahead, "from0", recv("from0"))
		})
		return logs
	}
	logs, _ := logOf(t, 3, lookahead, script)
	want := []string{"from0@10ns", "from1@10ns", "from1b@10ns"}
	if !reflect.DeepEqual(logs[2], want) {
		t.Fatalf("delivery order = %v, want %v", logs[2], want)
	}
}

// TestKeyedDeliveryMatchesMailboxOrder checks keyed delivery against the
// definition of mailbox order. Events on every lane post to random lanes and
// schedule follow-ups on their own lane (batch ends), often at one instant;
// at every barrier a peer group's decoded posts join them, from source lanes
// that post nothing locally. Each event is written down with its mailbox key,
// (time, window, source lane, send order): a post belongs to the window it
// was made in, and the host's events and a lane's own count as source -1 of
// the window they were queued in, which puts them before that window's posts.
// Every lane must fire all its events, in that key's order, never a post in
// the window it was made in; at zero lookahead (the live clock's sub-rounds)
// and at 3.
func TestKeyedDeliveryMatchesMailboxOrder(t *testing.T) {
	const lanes, peers = 6, 2 // the last two lanes post only as the peer group
	type key struct {
		at                time.Duration
		window, src, send int
	}
	before := func(a, b key) bool {
		switch {
		case a.at != b.at:
			return a.at < b.at
		case a.window != b.window:
			return a.window < b.window
		case a.src != b.src:
			return a.src < b.src
		}
		return a.send < b.send
	}
	for _, lookahead := range []time.Duration{0, 3} {
		for trial := int64(0); trial < 100; trial++ {
			rng := rand.New(rand.NewSource(trial))
			x := NewLaneExecutor(lanes, lookahead)
			fired := make([][]key, lanes)
			window, sent, budget := 0, 0, 300
			var lo time.Duration // the running window's first instant
			ran := false         // an event has fired since the last barrier
			var event func(dst int, k key) laneEvent
			event = func(dst int, k key) laneEvent {
				return fnEvent(func(now time.Duration) {
					if now != k.at {
						t.Fatalf("trial %d: event %+v fired at %v", trial, k, now)
					}
					if k.src >= 0 && k.window == window {
						t.Fatalf("trial %d: post %+v fired in the window it was made in", trial, k)
					}
					if !ran {
						lo, ran = now, true
					}
					fired[dst] = append(fired[dst], k)
					for dst < lanes-peers && budget > 0 && rng.Intn(3) > 0 {
						budget--
						sent++
						to, at := rng.Intn(lanes), now+time.Duration(rng.Intn(3))
						if to == dst {
							x.scheduleLaneEvent(dst, dst, at, event(dst, key{at, window, -1, sent}))
							continue
						}
						at += lookahead
						x.scheduleLaneEvent(dst, to, at, event(to, key{at, window, dst, sent}))
					}
				})
			}
			for dst := 0; dst < lanes; dst++ {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					sent++
					at := time.Duration(rng.Intn(10))
					x.scheduleLaneEvent(-1, dst, at, event(dst, key{at, 0, -1, sent}))
				}
			}
			x.barrierFn = func() error {
				// The peer group's window: what it decoded, in its send order,
				// takes the same keyed push a multi-group barrier makes.
				for n := rng.Intn(4); ran && n > 0 && budget > 0; n-- {
					budget--
					sent++
					src, to := lanes-peers+rng.Intn(peers), rng.Intn(lanes)
					at := lo + lookahead + time.Duration(rng.Intn(2))
					x.lanes[to].q.post(at, src, event(to, key{at, window, src, sent}))
				}
				x.closeBands()
				window++
				ran = false
				return nil
			}
			x.Run()
			total := 0
			for dst, ks := range fired {
				total += len(ks)
				for i := 1; i < len(ks); i++ {
					if !before(ks[i-1], ks[i]) {
						t.Fatalf("lookahead %v trial %d: lane %d fired %+v before %+v", lookahead, trial, dst, ks[i-1], ks[i])
					}
				}
			}
			if total != sent || x.Pending() != 0 {
				t.Fatalf("lookahead %v trial %d: %d of %d events fired, %d pending", lookahead, trial, total, sent, x.Pending())
			}
		}
	}
}

// TestShardedExecutorZeroLookahead verifies the degenerate window: with zero
// lookahead a same-time cross-lane chain still makes progress through
// fixpoint sub-rounds and fires every hop at the same virtual instant.
func TestShardedExecutorZeroLookahead(t *testing.T) {
	script := func(x *LaneExecutor, logs [][]string) [][]string {
		x.scheduleLane(-1, 0, 7, "start", func(now time.Duration) {
			logs[0] = append(logs[0], fmt.Sprintf("start@%v", now))
			x.scheduleLane(0, 1, now, "hop1", func(now time.Duration) {
				logs[1] = append(logs[1], fmt.Sprintf("hop1@%v", now))
				x.scheduleLane(1, 2, now, "hop2", func(now time.Duration) {
					logs[2] = append(logs[2], fmt.Sprintf("hop2@%v", now))
				})
			})
		})
		return logs
	}
	logs, fired := logOf(t, 3, 0, script)
	for lane, want := range map[int]string{0: "start@7ns", 1: "hop1@7ns", 2: "hop2@7ns"} {
		if len(logs[lane]) != 1 || logs[lane][0] != want {
			t.Fatalf("lane %d log = %v, want [%s]", lane, logs[lane], want)
		}
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

// TestShardedExecutorControlFirst verifies that control events precede lane
// events at equal timestamps, and that the barrier hook runs after every
// lane window and after every control event: once for the control event at
// 10 (the lane engine's one commit path for its terminations) and once for
// the window that runs the lane event.
func TestShardedExecutorControlFirst(t *testing.T) {
	x := NewLaneExecutor(2, 5)
	var order []string
	barriers := 0
	x.barrierFn = func() error { barriers++; return nil }
	x.Schedule(10, "ctrl", func(now time.Duration) { order = append(order, "ctrl") })
	x.scheduleLane(-1, 0, 10, "lane", func(now time.Duration) { order = append(order, "lane") })
	x.Run()
	if want := []string{"ctrl", "lane"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if barriers != 2 {
		t.Fatalf("barrier ran %d times, want 2", barriers)
	}
}

// TestShardedExecutorTicker verifies Ticker cadence and termination, and
// that Now() tracks the committed frontier.
func TestShardedExecutorTicker(t *testing.T) {
	x := NewLaneExecutor(1, 0)
	var at []time.Duration
	x.Ticker(100, "tick", func(now time.Duration) bool {
		at = append(at, now)
		return len(at) < 3
	})
	end := x.Run()
	if want := []time.Duration{100, 200, 300}; !reflect.DeepEqual(at, want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	if end != 300 || x.Now() != 300 {
		t.Fatalf("final time = %v / Now = %v, want 300", end, x.Now())
	}
}

// TestShardedExecutorWindowIsolation verifies the conservative window bound:
// a cross-lane post is never consumed in the window that produced it. Lane
// 0's event at t=4 posts to lane 1 at t=14 = 4+lookahead; lane 1's own
// event at t=12 shares the window [4,14) with the sender, but the delivery
// fires strictly after it, at the post's timestamp, in the next window.
func TestShardedExecutorWindowIsolation(t *testing.T) {
	x := NewLaneExecutor(2, 10)
	var got []string // appended only by lane 1 callbacks (serial per lane)
	x.scheduleLane(-1, 0, 4, "a", func(now time.Duration) {
		x.scheduleLane(0, 1, now+10, "b", func(now time.Duration) {
			got = append(got, fmt.Sprintf("b@%v", now))
		})
	})
	x.scheduleLane(-1, 1, 12, "c", func(now time.Duration) {
		got = append(got, fmt.Sprintf("c@%v", now))
	})
	x.Run()
	if want := []string{"c@12ns", "b@14ns"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lane 1 log = %v, want %v", got, want)
	}
}

// TestShardedExecutorShardCountInvariance runs a deterministic cascading
// workload twice and requires identical per-lane logs, every lane's log in
// time order, and the event count the cascade defines: each seed event fires
// 46 (a generation below the fourth fires itself, a self event and two
// children's subtrees: 1, 4, 10, 22, 46 from the leaves up), six seeds 276.
func TestShardedExecutorShardCountInvariance(t *testing.T) {
	const lanes = 6
	build := func() ([][]string, uint64) {
		return logOf(t, lanes, 3, func(x *LaneExecutor, logs [][]string) [][]string {
			// Each seed event cascades: lane L at time T sends to lanes
			// (L+1)%lanes and (L+2)%lanes at T+3 and T+5, for 4 generations.
			var cascade func(lane, gen int) func(time.Duration)
			cascade = func(lane, gen int) func(time.Duration) {
				return func(now time.Duration) {
					logs[lane] = append(logs[lane], fmt.Sprintf("g%d@%d", gen, now))
					if gen >= 4 {
						return
					}
					x.scheduleLane(lane, (lane+1)%lanes, now+3, "n1", cascade((lane+1)%lanes, gen+1))
					x.scheduleLane(lane, (lane+2)%lanes, now+5, "n2", cascade((lane+2)%lanes, gen+1))
					x.scheduleLane(lane, lane, now+2, "self", func(now time.Duration) {
						logs[lane] = append(logs[lane], fmt.Sprintf("self%d@%d", gen, now))
					})
				}
			}
			for l := 0; l < lanes; l++ {
				x.scheduleLane(-1, l, time.Duration(l), "seed", cascade(l, 0))
			}
			return logs
		})
	}
	baseLogs, baseFired := build()
	if baseFired != 6*46 {
		t.Fatalf("cascade fired %d events, want %d", baseFired, 6*46)
	}
	for lane, log := range baseLogs[:lanes] {
		last := -1
		for _, e := range log {
			var at int
			if _, err := fmt.Sscanf(e[strings.IndexByte(e, '@')+1:], "%d", &at); err != nil {
				t.Fatalf("lane %d: entry %q: %v", lane, e, err)
			}
			if at < last {
				t.Fatalf("lane %d fired out of time order: %v", lane, log)
			}
			last = at
		}
	}
	logs, fired := build()
	if fired != baseFired || !reflect.DeepEqual(logs, baseLogs) {
		t.Errorf("a second run fired %d events and logged differently from the first (%d)", fired, baseFired)
	}
}
