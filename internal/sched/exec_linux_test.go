//go:build linux

package sched

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// lagMedianBucket returns the LagHist bucket that holds the median lag.
func lagMedianBucket(st ExecStats) int {
	var seen uint64
	for k, n := range st.LagHist {
		if seen += n; 2*seen >= st.Fired {
			return k
		}
	}
	return len(st.LagHist) - 1
}

// TestTimerExecutorFineWait: 200 events, each scheduled 300 µs ahead of an
// idle drainer, fire with a median lag under 256 µs. A runtime timer alone
// puts it in [512, 1024) µs: the netpoller rounds the wait up to a whole
// millisecond.
func TestTimerExecutorFineWait(t *testing.T) {
	x := NewTimerExecutor()
	defer x.Stop()
	fired := make(chan struct{}, 1)
	fn := func(time.Duration) { fired <- struct{}{} }
	for i := 0; i < 200; i++ {
		x.Schedule(x.Now()+300*time.Microsecond, "tick", fn)
		<-fired
	}
	st := x.Stats()
	t.Logf("lag mean %.0f µs, max %.0f µs, histogram %v", st.LagMeanUS, st.LagMaxUS, st.LagHist)
	if k := lagMedianBucket(st); k > 8 {
		t.Fatalf("median lag in [%d, %d) µs, want under 256 µs (histogram %v)", 1<<(k-1), 1<<k, st.LagHist)
	}
}

// sleepingToward spins until x's drainer sleeps toward due, and reports false
// if due came first: a test that stalled that long missed the wait it meant
// to land in, and tries again.
func sleepingToward(x *LaneExecutor, due time.Duration) bool {
	for x.parkedOn() != due {
		if x.Now() >= due {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestTimerExecutorFineWaitCutAhead: a Schedule that lands ahead of the event
// a fine wait is sleeping toward fires first, and every event fires at or
// after its due instant, with it, in (time, schedule) order.
func TestTimerExecutorFineWaitCutAhead(t *testing.T) {
	type fire struct {
		name     string
		now, due time.Duration
	}
	for try := 0; ; try++ {
		if try == 20 {
			t.Fatal("in 20 tries the test never scheduled ahead of a fine wait")
		}
		x := NewTimerExecutor()
		fires := make(chan fire, 3)
		event := func(name string, due time.Duration) {
			x.Schedule(due, name, func(now time.Duration) { fires <- fire{name, now, x.Now()} })
		}
		far := x.Now() + fineWindow
		event("far", far)
		if !sleepingToward(x, far) {
			x.Stop()
			continue
		}
		near := x.Now() + fineWindow/4
		event("near", near)
		event("tie", far) // due with far, scheduled after it
		if near >= far {
			x.Stop()
			continue // far may have fired first, as it should have
		}
		for i, want := range []struct {
			name string
			due  time.Duration
		}{{"near", near}, {"far", far}, {"tie", far}} {
			got := <-fires
			if got.name != want.name || got.now != want.due {
				t.Fatalf("fire %d: %s handed %v, want %s handed %v", i, got.name, got.now, want.name, want.due)
			}
			if got.due < want.due {
				t.Fatalf("%s fired %v early", got.name, want.due-got.due)
			}
		}
		x.Stop()
		return
	}
}

// TestTimerExecutorStopDuringFineWait: Stop during a fine wait returns within
// a few slices, not when the wait ends. The median of five Stops must be
// under half the window: one that waited the wait out would take the rest of
// it, ≈ 1 ms. (Measured: 0.16–0.24 ms.)
func TestTimerExecutorStopDuringFineWait(t *testing.T) {
	var took []time.Duration
	for try := 0; len(took) < 5; try++ {
		if try == 20 {
			t.Fatalf("in 20 tries only %d Stops landed in a fine wait", len(took))
		}
		x := NewTimerExecutor()
		due := x.Now() + fineWindow
		x.Schedule(due, "due", func(time.Duration) {})
		if !sleepingToward(x, due) {
			x.Stop()
			continue
		}
		start := time.Now()
		x.Stop()
		if x.Stats().Fired == 0 { // else the wait had ended before Stop
			took = append(took, time.Since(start))
		}
	}
	slices.Sort(took)
	t.Logf("Stop took %v", took)
	if took[2] > fineWindow/2 {
		t.Fatalf("Stop during a fine wait took %v (median of 5), want under %v", took[2], fineWindow/2)
	}
}
