package sched

import (
	"runtime"
	"time"
)

// SleepUntil blocks until the wall clock reaches due or a receive from wake
// succeeds (a nil wake never does), whichever comes first: unless woken, it
// never returns early. timer is the caller's, re-armed from call to call so
// that a wait allocates nothing.
//
// A runtime timer is only as fine as the netpoller under it, so it carries the
// wait to within fineWindow of due, and the rest is slept in the kernel
// (sleepFine) in slices of at most fineSlice, with a look at wake between
// them and a yield before each. Where the runtime's timers are already fine,
// fineWindow is 0 and the timer waits the whole way.
func SleepUntil(timer *time.Timer, due time.Time, wake <-chan struct{}) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > fineWindow:
			timer.Reset(d - fineWindow)
			select {
			case <-timer.C:
			case <-wake:
				return
			}
		default:
			select {
			case <-wake:
				return
			default:
			}
			// A kernel sleep holds this goroutine's P for its length, and
			// what the caller just readied (the drainer's answers, the
			// pacer's sends) waits in that P's queue: let it run first.
			runtime.Gosched()
			sleepFine(min(d, fineSlice))
		}
	}
}
