package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// scheduleLane registers fn on lane dst at absolute time at: the closure form
// of scheduleLaneEvent, for scripted tests. name labels the call site only.
func (x *ShardedExecutor) scheduleLane(src, dst int, at time.Duration, name string, fn func(time.Duration)) {
	x.scheduleLaneEvent(src, dst, at, fnEvent(fn))
}

// logOf runs a scripted cascade on a fresh executor and returns the per-lane
// firing logs plus the control log. The script seeds initial events; each
// lane callback appends "name@time" to its lane's log (lane callbacks only
// touch their own lane's log, so logging is safe at any shard count).
func logOf(t *testing.T, lanes, shards int, lookahead time.Duration, script func(x *ShardedExecutor, logs [][]string) [][]string) ([][]string, uint64) {
	t.Helper()
	x := NewShardedExecutor(lanes, shards, lookahead)
	logs := make([][]string, lanes+1) // logs[lanes] is the control log
	logs = script(x, logs)
	x.Run()
	return logs, x.Fired()
}

// TestShardedExecutorLaneOrder verifies the per-lane contract: events fire
// in (timestamp, insertion order) order, including events scheduled from
// callbacks, and lane-past schedules clamp to the lane's present.
func TestShardedExecutorLaneOrder(t *testing.T) {
	script := func(x *ShardedExecutor, logs [][]string) [][]string {
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
	logs, fired := logOf(t, 1, 1, 5, script)
	want := []string{"a@10ns", "b@10ns", "clamped@10ns", "mid@20ns", "c@30ns"}
	if !reflect.DeepEqual(logs[0], want) {
		t.Fatalf("lane order = %v, want %v", logs[0], want)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

// TestShardedExecutorMailboxOrder verifies cross-lane delivery order: posts
// merge at the barrier keyed by (time, source module, send sequence),
// independent of which lane executed first.
func TestShardedExecutorMailboxOrder(t *testing.T) {
	const lookahead = 10
	for _, shards := range []int{1, 2, 3} {
		script := func(x *ShardedExecutor, logs [][]string) [][]string {
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
		logs, _ := logOf(t, 3, shards, lookahead, script)
		want := []string{"from0@10ns", "from1@10ns", "from1b@10ns"}
		if !reflect.DeepEqual(logs[2], want) {
			t.Fatalf("shards=%d: delivery order = %v, want %v", shards, logs[2], want)
		}
	}
}

// TestFlushOutboxesMergesInMailboxOrder checks the barrier's merge against
// the definition of mailbox order: gather every outbox in (source lane, send
// order), stable-sort by (time, source lane). Outboxes are random — silent
// lanes, equal timestamps within and across lanes, and now and then a post
// sent out of time order, which only a host closure can do and which takes
// the per-outbox sort first.
func TestFlushOutboxesMergesInMailboxOrder(t *testing.T) {
	const lanes = 5
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		x := NewShardedExecutor(lanes, 1, time.Millisecond)
		var id uint64
		var gathered []post
		for src, l := range x.lanes {
			at := time.Duration(rng.Intn(4))
			for k := rng.Intn(8) - 2; k > 0; k-- {
				at += time.Duration(rng.Intn(3)) // 0: a tie inside the outbox
				postAt := at
				if rng.Intn(10) == 0 {
					postAt = time.Duration(rng.Intn(4)) // out of order
				}
				id++
				l.outbox = append(l.outbox, wirePostAt(postAt, src, rng.Intn(lanes), id))
			}
			gathered = append(gathered, l.outbox...)
		}
		sortPosts(gathered)
		want := make([][]uint64, lanes)
		for _, p := range gathered {
			want[p.dst] = append(want[p.dst], p.ev.req.ID)
		}

		x.flushOutboxes()
		for dst, l := range x.lanes {
			if len(l.outbox) != 0 || l.sent != 0 {
				t.Fatalf("trial %d: lane %d's outbox was not emptied", trial, dst)
			}
			var got []uint64
			for {
				if _, ok := l.q.peek(); !ok {
					break
				}
				got = append(got, l.q.pop().req.ID)
			}
			if !reflect.DeepEqual(got, want[dst]) {
				t.Fatalf("trial %d: lane %d received %v, mailbox order is %v", trial, dst, got, want[dst])
			}
		}
	}
}

// TestShardedExecutorZeroLookahead verifies the degenerate window: with zero
// lookahead a same-time cross-lane chain still makes progress through
// fixpoint sub-rounds and fires every hop at the same virtual instant.
func TestShardedExecutorZeroLookahead(t *testing.T) {
	script := func(x *ShardedExecutor, logs [][]string) [][]string {
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
	logs, fired := logOf(t, 3, 2, 0, script)
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
// lane window.
func TestShardedExecutorControlFirst(t *testing.T) {
	x := NewShardedExecutor(2, 2, 5)
	var order []string
	barriers := 0
	x.setBarrierHook(func() error { barriers++; return nil })
	x.Schedule(10, "ctrl", func(now time.Duration) { order = append(order, "ctrl") })
	x.scheduleLane(-1, 0, 10, "lane", func(now time.Duration) { order = append(order, "lane") })
	x.Run()
	if want := []string{"ctrl", "lane"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if barriers != 1 {
		t.Fatalf("barrier ran %d times, want 1", barriers)
	}
}

// TestShardedExecutorTicker verifies Ticker cadence and termination, and
// that Now() tracks the committed frontier.
func TestShardedExecutorTicker(t *testing.T) {
	x := NewShardedExecutor(1, 1, 0)
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
	x := NewShardedExecutor(2, 2, 10)
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
// workload at several shard counts and requires identical per-lane logs and
// event counts — the executor-level statement of the differential harness.
func TestShardedExecutorShardCountInvariance(t *testing.T) {
	const lanes = 6
	build := func(shards int) ([][]string, uint64) {
		return logOf(t, lanes, shards, 3, func(x *ShardedExecutor, logs [][]string) [][]string {
			// Each seed event cascades: lane L at time T sends to lanes
			// (L+1)%lanes and (L+2)%lanes at T+3 and T+5, for 4 generations.
			var cascade func(lane, gen int) func(time.Duration)
			cascade = func(lane, gen int) func(time.Duration) {
				return func(now time.Duration) {
					logs[lane] = append(logs[lane], fmt.Sprintf("g%d@%v", gen, now))
					if gen >= 4 {
						return
					}
					x.scheduleLane(lane, (lane+1)%lanes, now+3, "n1", cascade((lane+1)%lanes, gen+1))
					x.scheduleLane(lane, (lane+2)%lanes, now+5, "n2", cascade((lane+2)%lanes, gen+1))
					x.scheduleLane(lane, lane, now+2, "self", func(now time.Duration) {
						logs[lane] = append(logs[lane], fmt.Sprintf("self%d@%v", gen, now))
					})
				}
			}
			for l := 0; l < lanes; l++ {
				x.scheduleLane(-1, l, time.Duration(l), "seed", cascade(l, 0))
			}
			return logs
		})
	}
	baseLogs, baseFired := build(1)
	if baseFired == 0 {
		t.Fatal("cascade fired no events")
	}
	for _, shards := range []int{2, 3, 6} {
		logs, fired := build(shards)
		if fired != baseFired {
			t.Errorf("shards=%d fired %d events, sequential fired %d", shards, fired, baseFired)
		}
		if !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("shards=%d produced different per-lane logs", shards)
		}
	}
}
