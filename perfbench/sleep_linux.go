package main

import (
	"syscall"
	"time"
)

// timerSlack is the kernel's default timer slack: a nanosleep ends about
// this late, so sleepUntil asks for that much less.
const timerSlack = 50 * time.Microsecond

// sleepUntil blocks until about t. time.Sleep rounds a sub-millisecond
// wait up to the netpoller's one-millisecond granularity whenever the
// process is otherwise idle, which would make the open-loop generator late
// by most of a millisecond at the rates it runs; a direct nanosleep stays
// within the kernel's timer slack.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only ends early
	}
}
