//go:build linux

package sched

import (
	"syscall"
	"time"
)

// Go's epoll netpoller waits in whole milliseconds: it rounds a timeout under
// 1 ms up to one and truncates a longer one (runtime/netpoll_epoll.go), so in
// an idle process a runtime timer fires up to a millisecond late — one due
// 0.3 ms out fires ≈ 0.8 ms late. fineWindow is that millisecond plus room
// for the wake-up itself; fineSlice bounds one kernel sleep, and with it how
// long a wake waits to be seen.
const (
	fineWindow = 1200 * time.Microsecond
	fineSlice  = 100 * time.Microsecond
)

// sleepFine sleeps d in the kernel, which keeps to microseconds (plus the
// thread's timer slack, 50 µs by default). An interrupted sleep only ends the
// slice early: the caller looks at the clock again.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}
