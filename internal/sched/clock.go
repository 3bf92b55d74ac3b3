package sched

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

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

// NewManualExecutor returns the lane engine on a clock the caller steps
// (RunUntil, Run), at t = 0 with no lanes and no pending events: parity and
// server tests replay workloads on it, and the RAG case study runs on it with
// no lanes, its events all on the control lane. A cluster built on one sizes
// its lanes from the pipeline and its lookahead from the hop delay.
// Single-goroutine, like the virtual clock.
func NewManualExecutor() *LaneExecutor { return &LaneExecutor{ctrl: new(laneState)} }

// wallClock is the drainer state of the lane engine paced by the wall clock
// (NewTimerExecutor): the live server's. One goroutine, the drainer, runs
// each step once the wall clock has reached its instant and hands every
// callback its due instant. A cluster built on it hops between modules at
// once, so a window is one instant and no event fires ahead of its own. The
// wait is SleepUntil's: on Linux, Go's netpoller sleeps in whole
// milliseconds, so a runtime timer only brings the drainer to within
// fineWindow of the instant and the kernel sleeps the rest in slices short
// enough to see a wake between them. However late the host wakes the
// drainer, the lag stays out of the model's clock: the next batch is
// scheduled from the due instant, so lag neither compounds per stage nor
// leaks into the policy's windows. Now is the wall clock, for callers
// outside callbacks.
//
// Host and control-context schedules — Submit's arrivals from any
// goroutine, the sync ticks, those the drainer's own callbacks make — go
// through a locked inbox, which the drainer moves into the lanes at its loop
// head: lane state is touched by the drainer alone, and no lock is held while
// an event fires.
type wallClock struct {
	start time.Time
	wake  chan struct{} // 1-slot: a post ahead of parked, or Stop
	done  chan struct{} // closed when the drainer exits

	mu      sync.Mutex // guards everything below
	inbox   []inboxItem
	parked  time.Duration // instant the drainer sleeps toward: 0 while it runs a step, MaxInt64 with nothing pending
	pending int           // events in the lanes: counted after each step, raised by each inbox move
	started bool          // the drainer goroutine exists
	stopped bool
	stats   ExecStats // Pending and LagMeanUS are filled in by Stats
	lagSum  time.Duration
}

// inboxItem is one schedule waiting for the drainer's loop head.
type inboxItem struct {
	dst int
	at  time.Duration
	ev  laneEvent
}

// ExecStats is a wall clock's account of itself. Lag is how far past a
// step's instant the wall clock stood as the step began — the host's wake-up
// latency while the drainer keeps up, a growing backlog when it does not —
// and is sampled once per step: an event queued behind slow callbacks of its
// instant is charged its step's lag. A step's events are counted once it ends.
type ExecStats struct {
	Fired     uint64  `json:"fired"`
	Pending   int     `json:"pending"`
	LagMeanUS float64 `json:"lag_mean_us"`
	LagMaxUS  float64 `json:"lag_max_us"`
	// LagHist[0] counts lags under 1 µs, [k] those in [2^(k-1), 2^k) µs and
	// [15] everything from 16.4 ms up.
	LagHist [16]uint64 `json:"lag_hist_pow2_us"`
}

// NewTimerExecutor returns the lane engine paced by the wall clock (see
// wallClock) at the current instant, with no lanes and no drainer yet.
func NewTimerExecutor() *LaneExecutor {
	t := &timerExecutor{}
	t.wall.start = time.Now()
	t.wall.wake = make(chan struct{}, 1)
	t.wall.done = make(chan struct{})
	t.wall.inbox = t.inbox[:0]
	t.x.ctrl, t.x.wall = &t.ctrl, &t.wall
	return &t.x
}

// timerExecutor is what NewTimerExecutor allocates in one piece: the
// executor, its control lane, its drainer state and the inbox's first room,
// as much as a host's lanes get (see attach).
type timerExecutor struct {
	x     LaneExecutor
	ctrl  laneState
	wall  wallClock
	inbox [32]inboxItem
}

// post queues one schedule in the inbox, starting the drainer with the first
// and waking it when the event is due before the instant it is parked on.
func (w *wallClock) post(x *LaneExecutor, dst int, at time.Duration, ev laneEvent) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.inbox = append(w.inbox, inboxItem{dst: dst, at: at, ev: ev})
	wake := at < w.parked
	if wake {
		w.parked = at // later posts behind this one need not signal again
	}
	if !w.started {
		w.started = true
		go x.drain()
	}
	w.mu.Unlock()
	if wake {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// drain is the wall clock's one goroutine: at each loop head it moves the
// inbox into the lanes and runs the next step once it is due, or parks until
// it is, a post cuts ahead of it, or Stop; after each step it counts the
// step's events.
func (x *LaneExecutor) drain() {
	w := x.wall
	defer close(w.done)
	timer := time.NewTimer(0) // a stale tick only makes SleepUntil look again
	defer timer.Stop()
	x.running = true
	w.mu.Lock()
	for {
		if w.stopped {
			w.mu.Unlock()
			return
		}
		for i := range w.inbox {
			it := &w.inbox[i]
			x.insert(it.dst, it.at, it.ev)
		}
		w.pending += len(w.inbox)
		clear(w.inbox) // drop the moved events' references
		w.inbox = w.inbox[:0]
		tCtrl, okC, tLane, okL := x.next()
		if !okC && !okL {
			w.parked = math.MaxInt64
			w.mu.Unlock()
			<-w.wake
			w.mu.Lock()
			continue
		}
		at := stepAt(tCtrl, okC, tLane, okL)
		wall := time.Since(w.start)
		if wall < at {
			w.parked = at
			w.mu.Unlock()
			SleepUntil(timer, w.start.Add(at), w.wake)
			w.mu.Lock()
			continue
		}
		w.parked = 0
		w.mu.Unlock()
		fired := x.Fired()
		x.step(tCtrl, okC, tLane, okL)
		n, lag := x.Fired()-fired, wall-at
		w.mu.Lock()
		lagUS := lag.Microseconds()
		w.stats.Fired += n
		w.lagSum += time.Duration(n) * lag
		w.stats.LagMaxUS = max(w.stats.LagMaxUS, float64(lagUS))
		w.stats.LagHist[min(bits.Len64(uint64(lagUS)), 15)] += n
		w.pending = x.Pending()
	}
}

// Stats returns the wall clock's counters, zero on a stepped clock (whose
// Fired and Pending say what it has to say).
func (x *LaneExecutor) Stats() ExecStats {
	w := x.wall
	if w == nil {
		return ExecStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.Pending = w.pending + len(w.inbox)
	s.LagMeanUS = float64(w.lagSum.Microseconds()) / float64(max(s.Fired, 1))
	return s
}

// Stop ends a wall clock: it discards pending events and returns once the
// drainer has exited, so after any step in flight ends. After Stop, Schedule
// is a no-op. A stepped clock has nothing to stop.
func (x *LaneExecutor) Stop() {
	w := x.wall
	if w == nil {
		return
	}
	w.mu.Lock()
	w.stopped = true
	started := w.started
	clear(w.inbox)
	w.inbox = w.inbox[:0]
	w.mu.Unlock()
	select { // a wake the drainer has yet to take serves as well
	case w.wake <- struct{}{}:
	default:
	}
	if started {
		<-w.done
	}
}
