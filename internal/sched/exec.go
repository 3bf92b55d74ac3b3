package sched

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// Executor is the small time-and-callback interface the scheduling core is
// parameterized over. The discrete-event simulator satisfies it with
// per-module event lanes on a virtual clock (ShardedExecutor); the live server
// with one event queue paced by the wall clock (TimerExecutor); deterministic
// tests and the RAG case study with the same queue stepped by hand
// (ManualExecutor). All three sit on laneQueue and are the interface's only
// implementations: its unexported method keeps it inside this package.
//
// The core is single-threaded by contract: an Executor never runs two
// callbacks concurrently. All three fire events in (timestamp, schedule
// order) and hand each callback its event's due instant, never a clock read
// at fire: callbacks must compute with their argument, and Now is for callers
// outside callbacks (a host stamping an arrival).
//
// An event in a queue is a value, never a closure the executor made: the
// core's own events are typed ops, and a host event is a Handler — a
// callback handed to Schedule, or a host's own type handed to
// ManualExecutor.ScheduleHandler.
type Executor interface {
	// Now returns the elapsed time since the start of the run.
	Now() time.Duration
	// Schedule registers fn to run at absolute time at; a time in the past is
	// raised to the last fired event's. fn receives that due instant. name
	// labels the call for its reader and is not kept: an event carries no
	// string.
	Schedule(at time.Duration, name string, fn func(now time.Duration))
	// scheduleLaneEvent is Schedule for typed events: ev travels by value and
	// fires through ev.fire, so scheduling one allocates nothing.
	// src is the module whose event is executing (-1 for host or control
	// context) and dst the module the event belongs to; the lane engine routes
	// by them, the global-queue executors have one queue and ignore both.
	scheduleLaneEvent(src, dst int, at time.Duration, ev laneEvent)
}

// Handler is a host event in typed form: the executor keeps the value in its
// queue and calls Fire with the event's due instant. A host that schedules one
// event per request names a pointer type per event kind over the request
// record it already has, and converting that pointer to a Handler allocates
// nothing — where a callback would cost a closure per event.
type Handler interface {
	Fire(now time.Duration)
}

// funcHandler is a callback as a Handler. A func value is pointer-shaped, so
// the interface holds it directly: wrapping one does not allocate.
type funcHandler func(now time.Duration)

func (f funcHandler) Fire(now time.Duration) { f(now) }

// fnEvent is the event Schedule(at, name, fn) queues.
func fnEvent(fn func(now time.Duration)) laneEvent { return laneEvent{h: funcHandler(fn)} }

// TimerExecutor is the live server's executor: one (at, seq) event queue
// paced by the wall clock. A single goroutine pops events in queue order,
// waits until the wall clock has reached the event's due instant, and fires
// the callback with that due instant. The wait is SleepUntil's: on Linux, Go's
// netpoller sleeps in whole milliseconds, so a runtime timer only brings the
// drainer to within fineWindow of the instant and the kernel sleeps the rest
// in slices short enough to see a wake between them; an idle drainer then
// fires a 0.3 ms timer tens of microseconds late, not ≈ 0.8 ms. An event
// never fires early, and however late the host wakes the drainer, the lag
// stays out of the model's clock: the next batch is scheduled from the due
// instant, so lag neither compounds per stage nor leaks into the policy's
// windows. Now is the wall clock, for callers outside callbacks.
type TimerExecutor struct {
	start time.Time
	wake  chan struct{} // 1-slot: Schedule inserted ahead of parked, or Stop
	done  chan struct{} // closed when the drainer exits

	mu      sync.Mutex // guards everything below
	q       laneQueue
	now     time.Duration // the model's clock: the last fired event's due instant
	parked  time.Duration // instant the drainer sleeps toward: 0 while it runs, MaxInt64 with nothing pending
	started bool          // the drainer goroutine exists
	stopped bool
	stats   ExecStats // Pending and LagMeanUS are filled in by Stats
	lagSum  time.Duration
}

// ExecStats is a TimerExecutor's account of itself. Lag is how far past its
// due instant the wall clock stood when an event fired: the host's wake-up
// latency while the drainer keeps up, a growing backlog when it does not.
type ExecStats struct {
	Fired     uint64  `json:"fired"`
	Pending   int     `json:"pending"`
	LagMeanUS float64 `json:"lag_mean_us"`
	LagMaxUS  float64 `json:"lag_max_us"`
	// LagHist[0] counts lags under 1 µs, [k] those in [2^(k-1), 2^k) µs and
	// [15] everything from 16.4 ms up.
	LagHist [16]uint64 `json:"lag_hist_pow2_us"`
}

// NewTimerExecutor returns an executor anchored at the current instant. Its
// goroutine starts with the first Schedule.
func NewTimerExecutor() *TimerExecutor {
	return &TimerExecutor{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// Now returns the wall-clock time elapsed since construction.
func (x *TimerExecutor) Now() time.Duration { return time.Since(x.start) }

// Schedule queues fn for time at. Safe for concurrent use, including from
// inside callbacks; it wakes the drainer only when the new event is due before
// the instant the drainer is parked on.
func (x *TimerExecutor) Schedule(at time.Duration, name string, fn func(time.Duration)) {
	x.scheduleLaneEvent(-1, -1, at, fnEvent(fn))
}

func (x *TimerExecutor) scheduleLaneEvent(_, _ int, at time.Duration, ev laneEvent) {
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	if at < x.now {
		at = x.now
	}
	x.q.push(at, ev)
	wake := at < x.parked
	if wake {
		x.parked = at // later schedules behind this one need not signal again
	}
	if !x.started {
		x.started = true
		go x.drain()
	}
	x.mu.Unlock()
	if wake {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// drain is the executor's one goroutine: fire what is due, park until the
// next event is, a Schedule cuts ahead of it, or Stop.
func (x *TimerExecutor) drain() {
	defer close(x.done)
	timer := time.NewTimer(0) // a stale tick only makes SleepUntil look again
	defer timer.Stop()
	for {
		x.mu.Lock()
		if x.stopped {
			x.mu.Unlock()
			return
		}
		at, ok := x.q.peek()
		wall := x.Now()
		if ok && wall >= at {
			ev := x.q.pop()
			x.now, x.parked = at, 0 // at >= x.now: Schedule clamps
			lagUS := (wall - at).Microseconds()
			x.stats.Fired++
			x.lagSum += wall - at
			x.stats.LagMaxUS = max(x.stats.LagMaxUS, float64(lagUS))
			x.stats.LagHist[min(bits.Len64(uint64(lagUS)), 15)]++
			x.mu.Unlock()
			ev.fire(at)
			continue
		}
		if !ok {
			x.parked = math.MaxInt64
			x.mu.Unlock()
			<-x.wake
			continue
		}
		x.parked = at
		x.mu.Unlock()
		SleepUntil(timer, x.start.Add(at), x.wake)
	}
}

// Stats returns the drainer's counters.
func (x *TimerExecutor) Stats() ExecStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.stats
	s.Pending = x.q.len()
	s.LagMeanUS = float64(x.lagSum.Microseconds()) / float64(max(s.Fired, 1))
	return s
}

// Stop discards pending events and returns once the drainer has exited, so
// after any in-flight callback ends. After Stop, Schedule is a no-op.
func (x *TimerExecutor) Stop() {
	x.mu.Lock()
	x.stopped = true
	started := x.started
	x.mu.Unlock()
	select { // a wake the drainer has yet to take serves as well
	case x.wake <- struct{}{}:
	default:
	}
	if started {
		<-x.done
	}
}

// ManualExecutor is TimerExecutor's queue with an injected clock: time
// advances only when the caller steps it, and due callbacks fire in
// (timestamp, schedule-order) order. It stands in for wall-clock time in
// parity and server tests, and Drain makes it a plain virtual-clock event
// loop, which is how the RAG case study (internal/rag) runs.
type ManualExecutor struct {
	now time.Duration
	q   laneQueue
}

// NewManualExecutor returns an executor at t = 0 with no pending events.
func NewManualExecutor() *ManualExecutor { return &ManualExecutor{} }

// Now returns the injected current time.
func (x *ManualExecutor) Now() time.Duration { return x.now }

// Schedule registers fn at time at (clamped to Now for past times).
func (x *ManualExecutor) Schedule(at time.Duration, name string, fn func(time.Duration)) {
	x.scheduleLaneEvent(-1, -1, at, fnEvent(fn))
}

// ScheduleHandler registers h at time at, in the same queue and the same
// (timestamp, schedule order) as Schedule's callbacks. It allocates nothing.
func (x *ManualExecutor) ScheduleHandler(at time.Duration, h Handler) {
	x.scheduleLaneEvent(-1, -1, at, laneEvent{h: h})
}

func (x *ManualExecutor) scheduleLaneEvent(_, _ int, at time.Duration, ev laneEvent) {
	if at < x.now {
		at = x.now
	}
	x.q.push(at, ev)
}

// Reserve makes room for n events scheduled in time order before the run
// starts: a trace of arrivals then lands in one array, not in one grown a
// quarter at a time.
func (x *ManualExecutor) Reserve(n int) { x.q.reserve(n) }

// RunUntil fires every event due at or before t in order, then advances the
// clock to t. Callbacks may schedule further events, which fire in the same
// pass when due.
func (x *ManualExecutor) RunUntil(t time.Duration) {
	for at, ok := x.q.peek(); ok && at <= t; at, ok = x.q.peek() {
		x.now = at
		ev := x.q.pop()
		ev.fire(at)
	}
	if t > x.now {
		x.now = t
	}
}

// Drain fires all pending events (including ones scheduled while draining)
// and returns the final time.
func (x *ManualExecutor) Drain() time.Duration {
	for at, ok := x.q.peek(); ok; at, ok = x.q.peek() {
		x.RunUntil(at)
	}
	return x.now
}

// Pending returns the number of queued events.
func (x *ManualExecutor) Pending() int { return x.q.len() }
