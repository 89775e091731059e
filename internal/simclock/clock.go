// Package simclock provides the time substrate used by every simulated
// subsystem in the repository: a Clock interface with a real
// implementation backed by package time, and a deterministic
// discrete-event implementation (Sim) with virtual time.
//
// Everything on the discrete-event clock is written in one style:
// schedule callbacks with AfterFunc/At/Post and continuations with
// Trigger.WaitThen, and drive the simulation with Run/RunUntil. Every
// flow — grid site, batch queue, glide-in agent, broker, federation,
// job bodies and tests — runs as run-to-completion events on the
// goroutine that called Run; the package starts no goroutine of its
// own.
//
// # Same-timestamp ordering
//
// Events scheduled for the same virtual instant dispatch in the order
// they were scheduled — FIFO by a monotone sequence number, never by
// heap accident. This holds uniformly across every scheduling source:
// AfterFunc/At/Post callbacks and Trigger releases (WaitThen, WaitAny)
// all draw from one sequence. The guarantee is part of the Clock
// contract for the simulated implementation; byte-reproducible
// fixed-seed traces depend on it and TestSameTimestampFIFO pins it.
package simclock

import (
	"time"
)

// Clock abstracts time so that components can run against either the
// wall clock or a simulated clock.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules fn to run once d has elapsed. The returned
	// Timer can stop the call before it fires.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before firing.
	Stop() bool
}

// Real returns a Clock backed by the wall clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }
