// Package simclock provides the time substrate used by every simulated
// subsystem in the repository: a deterministic discrete-event clock
// (Sim) with virtual time.
//
// Everything on the clock is written in one style: schedule callbacks
// with AfterFunc/Post and continuations with Trigger.WaitThen, and
// drive the simulation with Run/RunUntil. Every flow — grid site,
// batch queue, glide-in agent, broker, federation, job bodies and
// tests — runs as run-to-completion events on the goroutine that
// called Run; the package starts no goroutine of its own.
//
// # Same-timestamp ordering
//
// Events scheduled for the same virtual instant dispatch in the order
// they were scheduled — FIFO by a monotone sequence number, never by
// heap accident. This holds uniformly across every scheduling source:
// AfterFunc/Post callbacks and Trigger releases (WaitThen, WaitAny)
// all draw from one sequence. Byte-reproducible fixed-seed traces
// depend on it and TestSameTimestampFIFO pins it.
package simclock

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before firing.
	Stop() bool
}
