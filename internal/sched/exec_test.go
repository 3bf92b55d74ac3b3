package sched

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pard/internal/pipeline"
)

func TestManualExecutorDeterministicOrder(t *testing.T) {
	x := NewManualExecutor()
	var order []string
	x.Schedule(time.Second, "a", func(time.Duration) { order = append(order, "a") })
	x.Schedule(time.Second, "b", func(time.Duration) {
		order = append(order, "b")
		// Follow-up due in the same pass.
		x.Schedule(time.Second, "c", func(time.Duration) { order = append(order, "c") })
	})
	x.Schedule(500*time.Millisecond, "first", func(time.Duration) { order = append(order, "first") })
	x.RunUntil(750 * time.Millisecond)
	if len(order) != 1 || order[0] != "first" {
		t.Fatalf("after partial run: %v", order)
	}
	if x.Now() != 750*time.Millisecond {
		t.Fatalf("clock = %v", x.Now())
	}
	// A time already passed is raised to the clock.
	x.Schedule(100*time.Millisecond, "past", func(now time.Duration) {
		if now != 750*time.Millisecond {
			t.Errorf("past event fired at %v, want the clock's 750ms", now)
		}
		order = append(order, "past")
	})
	x.RunUntil(time.Second)
	want := []string{"first", "past", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if x.Pending() != 0 {
		t.Fatalf("%d events left", x.Pending())
	}
}

func TestManualExecutorDrain(t *testing.T) {
	x := NewManualExecutor()
	n := 0
	var chainFn func(time.Duration)
	chainFn = func(now time.Duration) {
		n++
		if n < 5 {
			x.Schedule(now+time.Second, "chain", chainFn)
		}
	}
	x.Schedule(time.Second, "chain", chainFn)
	if end := x.Run(); end != 5*time.Second {
		t.Fatalf("drain ended at %v", end)
	}
	if n != 5 {
		t.Fatalf("fired %d", n)
	}
}

func TestTimerExecutorRunsAndSerializes(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		x.Schedule(x.Now()+time.Duration(i%4)*time.Millisecond, "cb", func(time.Duration) {
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			inside--
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("callbacks overlapped: max concurrency %d", maxInside)
	}
}

func TestTimerExecutorStopCancelsPending(t *testing.T) {
	x := NewTimerExecutor()
	var fired atomic.Int32
	x.Schedule(x.Now()+time.Hour, "never", func(time.Duration) { fired.Add(1) })
	x.Stop()
	if fired.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
	// Schedule after Stop is a no-op, and Stop is idempotent.
	x.Schedule(x.Now(), "late", func(time.Duration) { fired.Add(1) })
	x.Stop()
	time.Sleep(5 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("post-stop schedule fired")
	}
}

// TestTimerExecutorReentrantSchedule exercises Schedule called from inside a
// callback (the core's forward/batch-end path under the live server).
func TestTimerExecutorReentrantSchedule(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	done := make(chan struct{})
	x.Schedule(x.Now(), "outer", func(now time.Duration) {
		x.Schedule(now, "inner", func(time.Duration) { close(done) })
	})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("reentrant schedule never fired")
	}
}

// TestTimerExecutorNeverEarly: whatever the host's wake-up latency, an event
// fires with the wall clock at or past its due instant, and the instants
// handed to callbacks form the model's clock: each is the event's due
// instant, raised to the previous one when the event was already overdue.
func TestTimerExecutorNeverEarly(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	type firing struct{ at, arg, wall time.Duration }
	const n = 2000
	fired := make([]firing, 0, n) // callbacks are serial: appended in firing order
	var wg sync.WaitGroup
	wg.Add(n)
	rng := rand.New(rand.NewSource(1))
	base := x.Now()
	for i := 0; i < n; i++ {
		at := base + time.Duration(rng.Int63n(int64(20*time.Millisecond)))
		x.Schedule(at, "ev", func(now time.Duration) {
			fired = append(fired, firing{at: at, arg: now, wall: x.Now()})
			wg.Done()
		})
	}
	wg.Wait()
	var prev time.Duration
	for i, f := range fired {
		if f.wall < f.at {
			t.Fatalf("event %d due at %v fired early, at %v on the wall", i, f.at, f.wall)
		}
		if want := max(f.at, prev); f.arg != want {
			t.Fatalf("event %d due at %v after %v was handed %v, want %v", i, f.at, prev, f.arg, want)
		}
		prev = f.arg
	}
	// The last callback returns before the drainer counts its step.
	if st := statsWhen(t, x, func(st ExecStats) bool { return st.Fired == n }); st.Pending != 0 || st.LagMaxUS < st.LagMeanUS {
		t.Fatalf("stats after %d events: %+v", n, st)
	}
}

// TestTimerExecutorDeterministicOrder: events with equal and interleaved
// timestamps, scheduled from outside before the first fires and from inside a
// callback, fire in (timestamp, schedule order) — the simulator's order. (One
// runtime timer per event raced their goroutines for a run lock.)
func TestTimerExecutorDeterministicOrder(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	type key struct {
		at  time.Duration
		seq int
	}
	var want, got []key
	var wg sync.WaitGroup
	schedule := func(at time.Duration) {
		k := key{at, len(want)}
		want = append(want, k)
		wg.Add(1)
		x.Schedule(at, "ev", func(now time.Duration) {
			if now != k.at {
				t.Errorf("event %d due at %v was handed %v", k.seq, k.at, now)
			}
			got = append(got, k)
			wg.Done()
		})
	}
	// The drainer sits inside this callback until everything is queued.
	gate := make(chan struct{})
	x.Schedule(x.Now(), "gate", func(time.Duration) { <-gate })
	base := x.Now() + 2*time.Millisecond
	wg.Add(1)
	x.Schedule(base, "first", func(now time.Duration) {
		for j := 0; j < 200; j++ {
			schedule(now + time.Duration(j%5)*100*time.Microsecond)
		}
		wg.Done()
	})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 800; i++ {
		schedule(base + time.Duration(rng.Intn(5))*100*time.Microsecond)
	}
	close(gate)
	wg.Wait()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d was %+v, want %+v", i, got[i], want[i])
		}
	}
}

// orderProbe is a host's typed event, as internal/rag's are: a pointer to a
// record the host already has, fired through Handler.
type orderProbe struct {
	at   time.Duration
	fire func(now, due time.Duration)
}

func (p *orderProbe) Fire(now time.Duration) { p.fire(now, p.at) }

// TestHandlerEventsInterleave: typed host events and callbacks share the
// control lane and one (timestamp, schedule order) on the manual and the wall
// clock, whether scheduled from outside or from inside a firing event, and
// each is handed its due instant.
func TestHandlerEventsInterleave(t *testing.T) {
	man := NewManualExecutor()
	checkInterleave(t, man, func() { man.Run() })

	tim := NewTimerExecutor()
	defer tim.Stop()
	// The drainer sits inside this callback until everything is queued.
	gate := make(chan struct{})
	tim.Schedule(tim.Now(), "gate", func(time.Duration) { <-gate })
	checkInterleave(t, tim, func() { close(gate) })
}

func checkInterleave(t *testing.T, x *LaneExecutor, start func()) {
	var due []time.Duration // by schedule order
	var got []int           // schedule-order numbers, in firing order
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(3))
	schedule := func(at time.Duration) {
		seq := len(due)
		due = append(due, at)
		wg.Add(1)
		fire := func(now, at time.Duration) {
			if now != at {
				t.Errorf("event %d due at %v was handed %v", seq, at, now)
			}
			got = append(got, seq)
			wg.Done()
		}
		if rng.Intn(2) == 0 {
			x.ScheduleHandler(at, &orderProbe{at: at, fire: fire})
		} else {
			x.Schedule(at, "callback", func(now time.Duration) { fire(now, at) })
		}
	}
	base := x.Now() + 2*time.Millisecond
	wg.Add(1)
	x.ScheduleHandler(base, &orderProbe{at: base, fire: func(now, _ time.Duration) {
		for j := 0; j < 200; j++ {
			schedule(now + time.Duration(j%5)*100*time.Microsecond)
		}
		wg.Done()
	}})
	for i := 0; i < 800; i++ {
		schedule(base + time.Duration(rng.Intn(5))*100*time.Microsecond)
	}
	start()
	wg.Wait()
	want := make([]int, len(due))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return due[want[i]] < due[want[j]] })
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d was event %d (due %v), want event %d (due %v)", i, got[i], due[got[i]], want[i], due[want[i]])
		}
	}
}

// TestTimerExecutorLagDoesNotCompound: a chain of 200 events, each scheduling
// the next 300 µs after the instant it was handed, spans 60 ms of model time
// and must take about that on the wall. Handing callbacks the wall clock at
// fire instead makes every link start from a late instant: ≈220 ms here.
func TestTimerExecutorLagDoesNotCompound(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	const links, step = 200, 300 * time.Microsecond
	done := make(chan time.Duration)
	n := 0
	var link func(time.Duration)
	link = func(now time.Duration) {
		if n++; n == links {
			done <- now
			return
		}
		x.Schedule(now+step, "link", link)
	}
	start := x.Now()
	x.Schedule(start+step, "link", link)
	end := <-done
	wall := x.Now() - start
	if end != start+links*step {
		t.Fatalf("the chain ended at model time %v, want %v", end-start, links*step)
	}
	if limit := links*step*3/2 + 20*time.Millisecond; wall > limit {
		t.Fatalf("%d links of %v took %v on the wall, want under %v", links, step, wall, limit)
	}
}

// TestTimerExecutorWakesParkedDrainer: a Schedule from outside that lands
// ahead of the event the drainer is parked on cuts in.
func TestTimerExecutorWakesParkedDrainer(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	x.Schedule(x.Now()+time.Hour, "far", func(time.Duration) { t.Error("an event an hour away fired") })
	for deadline := time.Now().Add(5 * time.Second); x.parkedOn() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the drainer never parked on an event an hour away")
		}
	}
	fired := make(chan time.Duration, 1)
	start := x.Now()
	x.Schedule(start+2*time.Millisecond, "near", func(time.Duration) { fired <- x.Now() })
	select {
	case at := <-fired:
		if at < start+2*time.Millisecond || at > start+50*time.Millisecond {
			t.Fatalf("an event due 2 ms out fired %v after it was scheduled", at-start)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked drainer never woke")
	}
	if st := statsWhen(t, x, func(st ExecStats) bool { return st.Fired == 1 }); st.Pending != 1 {
		t.Fatalf("stats = %+v, want 1 fired and 1 pending", st)
	}
}

// statsWhen polls x's Stats until ok holds, and fails the test if it does
// not within 5 s: a callback has returned before the drainer counts its
// step.
func statsWhen(t *testing.T, x *LaneExecutor, ok func(ExecStats) bool) ExecStats {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		st := x.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats still %+v after 5 s", st)
		}
	}
}

func (x *LaneExecutor) parkedOn() time.Duration {
	x.wall.mu.Lock()
	defer x.wall.mu.Unlock()
	return x.wall.parked
}

// waitGoroutines fails the test unless the goroutine count returns to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the executor existed", runtime.NumGoroutine(), base)
		}
	}
}

// TestTimerExecutorStop: Stop from another goroutine waits for the callback
// in flight, nothing fires afterwards, and the executor owns a goroutine only
// between its first Schedule and Stop.
func TestTimerExecutorStop(t *testing.T) {
	base := runtime.NumGoroutine()
	x := NewTimerExecutor()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after construction, %d before", n, base)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var finished, after atomic.Bool
	x.Schedule(x.Now(), "slow", func(time.Duration) {
		close(entered)
		<-release
		finished.Store(true)
	})
	x.Schedule(x.Now(), "next", func(time.Duration) { after.Store(true) })
	<-entered
	stopped := make(chan struct{})
	go func() {
		x.Stop()
		if !finished.Load() {
			t.Error("Stop returned while a callback was in flight")
		}
		close(stopped)
	}()
	for !x.isStopped() {
		runtime.Gosched() // until Stop has latched and is waiting
	}
	close(release)
	<-stopped
	x.Schedule(x.Now(), "late", func(time.Duration) { after.Store(true) })
	x.Stop()
	waitGoroutines(t, base)
	if after.Load() {
		t.Fatal("an event fired after Stop")
	}

	// Stop with no drainer to wait for.
	y := NewTimerExecutor()
	y.Stop()
	y.Schedule(y.Now(), "late", func(time.Duration) { after.Store(true) })
	y.Stop()
	if n := runtime.NumGoroutine(); n > base || after.Load() {
		t.Fatalf("a never-used executor left %d goroutines (%d before), fired %t", n, base, after.Load())
	}
}

func (x *LaneExecutor) isStopped() bool {
	x.wall.mu.Lock()
	defer x.wall.mu.Unlock()
	return x.wall.stopped
}

// TestTimerExecutorHammer: eight goroutines schedule events whose callbacks
// schedule more, and a Stop lands in the middle: every event fires at most
// once and none after Stop has returned.
func TestTimerExecutorHammer(t *testing.T) {
	base := runtime.NumGoroutine()
	x := NewTimerExecutor()
	const producers, each, stopAfter = 8, 2000, 300
	fires := make([]atomic.Int32, 2*producers*each)
	var total atomic.Int32
	var stopped atomic.Bool
	midway := make(chan struct{})
	fire := func(id int) {
		if stopped.Load() {
			t.Error("an event fired after Stop returned")
		}
		fires[id].Add(1)
		if total.Add(1) == stopAfter {
			close(midway)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p <= producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if p == producers {
				<-midway
				x.Stop()
				stopped.Store(true)
				return
			}
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < each; i++ {
				id := 2 * (p*each + i)
				x.Schedule(x.Now()+time.Duration(rng.Intn(500))*time.Microsecond, "outer", func(now time.Duration) {
					fire(id)
					x.Schedule(now+100*time.Microsecond, "inner", func(time.Duration) { fire(id + 1) })
				})
				runtime.Gosched()
			}
		}(p)
	}
	wg.Wait()
	waitGoroutines(t, base)
	for i := range fires {
		if n := fires[i].Load(); n > 1 {
			t.Fatalf("event %d fired %d times", i, n)
		}
	}
	if n := int(total.Load()); n < stopAfter || n == len(fires) {
		t.Fatalf("%d of %d events fired: Stop was meant to land mid-run", n, len(fires))
	}
}

// TestTimerExecutorRefusesHop: a window spans the hop delay, so on the wall
// clock its later events would fire ahead of their instants. A cluster with
// a hop is refused there and taken on the manual clock, whose windows span
// it; an executor runs one cluster.
func TestTimerExecutorRefusesHop(t *testing.T) {
	plan := mustPlan(t, pipeline.TM(), []int{1, 1, 1})
	var cfg Config
	hop := Config{NetDelay: time.Millisecond}
	x := NewTimerExecutor()
	defer x.Stop()
	if _, err := New(plan, hop, x); err == nil || !strings.Contains(err.Error(), "windows of one instant") {
		t.Fatalf("a 1 ms hop on the wall clock: %v", err)
	}
	if _, err := New(plan, cfg, x); err != nil {
		t.Fatal(err)
	}
	if _, err := New(plan, cfg, x); err == nil || !strings.Contains(err.Error(), "already runs a cluster") {
		t.Fatalf("a second cluster on one executor: %v", err)
	}
	man := NewManualExecutor()
	if _, err := New(plan, hop, man); err != nil || man.lookahead != hop.NetDelay || len(man.lanes) != 3 {
		t.Fatalf("manual clock: %v, lookahead %v, %d lanes", err, man.lookahead, len(man.lanes))
	}
}
