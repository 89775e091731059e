package simclock

import (
	"fmt"
	"time"
)

// Sim is a deterministic discrete-event simulation clock.
//
// A single scheduler goroutine (the caller of Run, RunFor or RunUntil)
// pops events off one heap in (virtual time, seq) order and dispatches
// each as a plain function call: AfterFunc, At and Post schedule a
// function, Trigger.WaitThen a continuation. Virtual time jumps
// directly from one event to the next, so simulations covering hours
// complete in microseconds and are bit-for-bit reproducible. The
// scheduling flows of every substrate package (site, batch, glidein,
// broker, federation) are written in this run-to-completion style.
//
// Code that is more naturally written as blocking steps — a job body,
// a test driver — runs as a cooperative process instead: Go starts one
// in its own event, Blocking starts one inside the event that is
// already being dispatched, and a process may call Sleep, Trigger.Wait
// and Queue.Get. Exactly one process runs at any instant, and control
// returns to the scheduler whenever it blocks or finishes. A Sleep, a
// Wait and a process start each cost one event, scheduled at the same
// execution point as the AfterFunc, WaitThen and Post they correspond
// to, so the two styles interleave on the heap without either
// disturbing the other's order.
//
// Sim state is deliberately unlocked. Exactly one logical thread is
// ever active — the scheduler, or the one process it handed control to
// — and every transfer of control flows through a proc's wake/yield
// channel handshake, whose sends and receives order all state access
// between the scheduler goroutine and process goroutines (the race
// detector sees those edges; CI runs the full suite under -race).
// Calls from outside a run — the driver thread between RunFor chunks —
// are part of the same single logical thread. What is NOT supported is
// calling into one Sim from a second OS thread concurrently with a
// run; no package in this repository does (netsim, gsi, interpose and
// mpisim run real goroutines but never touch a Sim).
type Sim struct {
	now    time.Time
	events eventHeap
	freeEv []*event // recycled events; see event.gen
	freePr []*proc  // idle pooled process workers; see lease
	seq    int64
	cur    *proc  // process currently holding control, nil in plain events
	firing *event // event currently being dispatched; see SimTimer.Stop
	nprocs int    // live (not yet exited) processes
}

// NewSim returns a simulation clock starting at start. A zero start is
// replaced with a fixed, arbitrary epoch so tests are reproducible.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = time.Date(2006, time.September, 25, 12, 0, 0, 0, time.UTC)
	}
	return &Sim{now: start}
}

type event struct {
	key      int64 // at.UnixNano(): cheap integer ordering key
	at       time.Time
	seq      int64
	gen      uint64 // bumped on recycle; stale SimTimers detect reuse
	fn       func()
	proc     *proc
	canceled bool
}

// recycle returns an executed or canceled event to the free list.
// Bumping gen invalidates any SimTimer still holding the event, and
// clearing fn/proc drops the closure for the garbage collector.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	s.freeEv = append(s.freeEv, e)
}

// eventHeap is a hand-rolled binary min-heap ordered by (key, seq).
// Heap operations dominate busy simulations, so ordering compares two
// pre-computed int64s instead of time.Time values through the
// container/heap interface.
//
// The seq tiebreak is a contract, not an implementation detail: events
// scheduled for the same timestamp dispatch in the order they were
// scheduled (FIFO), whether they carry a function or a process wake.
// Fixed-seed traces are byte-reproducible only because of it. See
// TestSameTimestampFIFO.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	a := append(*h, e)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	a := *h
	n := len(a) - 1
	e := a[0]
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	*h = a
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a.less(r, l) {
			m = r
		}
		if !a.less(m, i) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return e
}

// proc is one cooperative process. Control is handed to the process by
// sending on wake; the process returns control by sending on yield.
type proc struct {
	wake  chan struct{}
	yield chan struct{}
	fn    func() // body for the current lease
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	return s.now
}

// Since returns the virtual duration elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

func (s *Sim) schedule(d time.Duration, fn func(), p *proc) *event {
	if d < 0 {
		d = 0
	}
	at := s.now.Add(d)
	var e *event
	if n := len(s.freeEv); n > 0 {
		e = s.freeEv[n-1]
		s.freeEv = s.freeEv[:n-1]
		e.key, e.at, e.seq, e.fn, e.proc, e.canceled = at.UnixNano(), at, s.seq, fn, p, false
	} else {
		e = &event{key: at.UnixNano(), at: at, seq: s.seq, fn: fn, proc: p}
	}
	s.seq++
	s.events.push(e)
	return e
}

// AfterFunc schedules fn to run in its own event after d of virtual
// time. fn runs on the scheduler goroutine; it must not call Sleep or
// Trigger.Wait directly (start a process with Go for that).
//
// AfterFunc must stay small enough to inline: a caller that discards
// the result then pays no allocation for the Timer interface value.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	e := s.schedule(d, fn, nil)
	return SimTimer{s, e, e.gen}
}

// AfterFuncTimer is AfterFunc returning the concrete SimTimer, for an
// owner that keeps the handle in a field: storing a Timer interface
// value boxes the handle in an allocation of its own.
func (s *Sim) AfterFuncTimer(d time.Duration, fn func()) SimTimer {
	e := s.schedule(d, fn, nil)
	return SimTimer{s, e, e.gen}
}

// At schedules fn at absolute virtual time t (immediately if t is in
// the past).
func (s *Sim) At(t time.Time, fn func()) Timer {
	return s.AfterFunc(t.Sub(s.Now()), fn)
}

// Post schedules fn to run in its own event at the current virtual
// time, after all events already scheduled for this instant (FIFO).
func (s *Sim) Post(fn func()) {
	s.schedule(0, fn, nil)
}

// SimTimer is the Timer of a pending Sim event. The zero SimTimer is
// a timer that already fired: Stop reports false.
type SimTimer struct {
	s   *Sim
	e   *event
	gen uint64
}

// Stop cancels the timer, reporting whether the call was stopped before
// firing. Stop on a timer whose event is being dispatched right now —
// its callback is on the stack, directly or transitively calling Stop —
// returns false: the call was not prevented. Stop on a timer scheduled
// for the current tick but not yet dispatched returns true and the
// callback never runs, even when the canceling event carries the same
// timestamp. This mirrors time.Timer.Stop semantics and is pinned by
// TestTimerStopInterleavings.
func (t SimTimer) Stop() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.canceled {
		return false // already executed (event recycled) or already stopped
	}
	if t.e == t.s.firing {
		// The event was popped and its callback is running on the
		// scheduler stack at this very moment; it cannot be prevented.
		// Without this check the gen counter still matches (recycling
		// happens after dispatch) and Stop would claim success while
		// the callback runs anyway.
		return false
	}
	t.e.canceled = true
	return true
}

// Go starts a cooperative process running fn. The process is scheduled
// to begin at the current virtual time; fn may call Sleep and
// Trigger.Wait freely. Go may be called before Run or from within a
// running event or process.
func (s *Sim) Go(fn func()) {
	s.schedule(0, nil, s.lease(fn))
}

// lease binds fn to a process worker. Procs are pooled: the backing
// goroutine loops, running one body per lease, so repeated process
// starts reuse goroutines and channels instead of allocating fresh
// ones.
func (s *Sim) lease(fn func()) *proc {
	s.nprocs++
	if n := len(s.freePr); n > 0 {
		p := s.freePr[n-1]
		s.freePr = s.freePr[:n-1]
		p.fn = fn
		return p
	}
	p := &proc{wake: make(chan struct{}), yield: make(chan struct{}), fn: fn}
	go func() {
		for {
			<-p.wake
			p.fn()
			s.nprocs--
			p.fn = nil
			s.freePr = append(s.freePr, p)
			p.yield <- struct{}{}
		}
	}()
	return p
}

// Blocking adapts a blocking body — one that calls Sleep, Trigger.Wait
// or Queue.Get — to the continuation-passing shape the scheduling
// flows dispatch job bodies in (batch.Request.RunCB,
// glidein.InteractiveJob.RunCB, broker.Request.Body). The returned
// function must be called from an event or a process; it starts body
// as a process inside that dispatch slot, with no event of its own,
// and returns when body first blocks or finishes. done runs in the
// process once body returns.
func Blocking[C any](s *Sim, body func(C)) func(ctx C, done func()) {
	return func(ctx C, done func()) {
		p := s.lease(func() {
			body(ctx)
			done()
		})
		// The caller — scheduler or enclosing process — plays the
		// scheduler's part of the handshake for this first stretch;
		// later wake-ups arrive through the heap like any process's.
		prev := s.cur
		s.cur = p
		p.wake <- struct{}{}
		<-p.yield
		s.cur = prev
	}
}

// Sleep suspends the calling process for d of virtual time. It panics
// when called from outside a process (i.e. from a plain AfterFunc event
// or before Run started the process).
func (s *Sim) Sleep(d time.Duration) {
	p := s.currentProc()
	s.schedule(d, nil, p)
	p.yield <- struct{}{}
	<-p.wake
}

func (s *Sim) currentProc() *proc {
	p := s.cur
	if p == nil {
		panic("simclock: Sleep/Wait called outside a Sim process; use Sim.Go")
	}
	return p
}

// step executes the next pending event. It reports false when no
// events remain or the next event lies beyond limit (when hasLimit).
func (s *Sim) step(limit time.Time, hasLimit bool) bool {
	for len(s.events) > 0 && s.events[0].canceled {
		s.recycle(s.events.pop())
	}
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	if hasLimit && e.at.After(limit) {
		s.now = limit
		return false
	}
	s.events.pop()
	s.now = e.at
	s.cur = e.proc
	s.firing = e

	if e.proc != nil {
		e.proc.wake <- struct{}{}
		<-e.proc.yield
	} else if e.fn != nil {
		e.fn()
	}

	s.cur = nil
	s.firing = nil
	s.recycle(e)
	return true
}

// Run executes events until none remain. It returns the final virtual
// time. Processes blocked forever (e.g. on a Trigger that is never
// fired) do not keep Run alive.
func (s *Sim) Run() time.Time {
	for s.step(time.Time{}, false) {
	}
	return s.Now()
}

// RunUntil executes events with timestamps not after t, then sets the
// clock to t.
func (s *Sim) RunUntil(t time.Time) time.Time {
	for s.step(t, true) {
	}
	return s.Now()
}

// RunFor advances the clock by d, executing all events in the window.
func (s *Sim) RunFor(d time.Duration) time.Time {
	return s.RunUntil(s.Now().Add(d))
}

// Pending reports the number of scheduled, uncanceled events.
func (s *Sim) Pending() int {
	n := 0
	for _, e := range s.events {
		if !e.canceled {
			n++
		}
	}
	return n
}

// String describes the clock state, for debugging.
func (s *Sim) String() string {
	return fmt.Sprintf("sim(now=%s pending=%d procs=%d)", s.now.Format(time.RFC3339), len(s.events), s.nprocs)
}

var _ Clock = (*Sim)(nil)
