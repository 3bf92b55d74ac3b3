//go:build !linux

package sched

import "time"

// kqueue and Windows timers take sub-millisecond timeouts, so a runtime timer
// waits the whole way and nothing is slept in the kernel.
const (
	fineWindow time.Duration = 0
	fineSlice  time.Duration = 0
)

func sleepFine(time.Duration) {}
