package simclock

import (
	"fmt"
	"time"
)

// Sim is a deterministic discrete-event simulation clock.
//
// The caller of Run, RunFor or RunUntil takes events in (virtual time,
// seq) order and dispatches each as a plain function call: AfterFunc
// and Post schedule a function, Trigger.WaitThen a continuation.
// Virtual time jumps directly from one event to the next, so
// simulations covering hours complete in microseconds and are
// bit-for-bit reproducible. Every flow — the scheduling flows of the
// substrate packages (site, batch, glidein, broker, federation), job
// bodies and test drivers alike — is written in this run-to-completion
// style: a step that must wait schedules its continuation and returns.
//
// Sim state is deliberately unlocked. The package starts no goroutine
// and every event runs on the goroutine that called Run, so exactly
// one logical thread ever touches a Sim; calls from the driver between
// RunFor chunks belong to the same thread. What is NOT supported is
// calling into one Sim from a second goroutine concurrently with a
// run; no package in this repository does (netsim, gsi, interpose and
// mpisim run real goroutines but never touch a Sim).
type Sim struct {
	now    time.Time
	events eventHeap // events with a positive delay
	lane   lane      // zero-delay events, all at now
	freeEv []*event  // recycled events; see event.gen
	seq    int64
	firing *event // event currently being dispatched; see SimTimer.Stop

	// tail is the event last pushed on the heap, the end of its run,
	// and tailKey its instant; nil once that event is recycled. See
	// schedule.
	tail    *event
	tailKey int64
}

// NewSim returns a simulation clock starting at start. A zero start is
// replaced with a fixed, arbitrary epoch so tests are reproducible.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = time.Date(2006, time.September, 25, 12, 0, 0, 0, time.UTC)
	}
	return &Sim{now: start}
}

// event is one scheduled call. Its ordering key and sequence number
// live in the slot that queues it, so ordering never dereferences it.
type event struct {
	at       time.Time
	gen      uint64 // bumped on recycle; stale SimTimers detect reuse
	fn       func()
	next     *event // next member of the heap run this event heads or is in
	canceled bool
}

// recycle returns an executed or canceled event to the free list.
// Bumping gen invalidates any SimTimer still holding the event, and
// clearing fn drops the closure for the garbage collector. A recycled
// tail ends its run: the event may be reused at any instant.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	if e == s.tail {
		s.tail = nil
	}
	s.freeEv = append(s.freeEv, e)
}

// slot queues one event under its ordering key: at.UnixNano() and the
// scheduling sequence number.
//
// The seq tiebreak is a contract, not an implementation detail: events
// scheduled for the same timestamp dispatch in the order they were
// scheduled (FIFO), whichever call scheduled them. Fixed-seed traces
// are byte-reproducible only because of it. See TestSameTimestampFIFO.
type slot struct {
	key int64
	seq int64
	ev  *event
}

func (a slot) before(b slot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled 4-ary min-heap of slots ordered by (key,
// seq). Heap operations dominate busy simulations: the slots carry
// their keys inline, so a sift compares integers without touching an
// event, and four children per node halve the depth of a binary heap.
//
// A slot queues a run of events, linked through event.next: the
// events a run of consecutive heap pushes put at one instant, in seq
// order (see schedule). The slot keeps its head's seq, which orders it
// correctly against every other slot of that instant.
type eventHeap []slot

// take removes the first event of the top slot's run. The next member
// moves into the slot in place, which keeps the heap order because the
// key does not change; the slot pops only when its run ends.
func (h *eventHeap) take() *event {
	top := &(*h)[0]
	e := top.ev
	if e.next == nil {
		h.pop()
		return e
	}
	top.ev, e.next = e.next, nil
	return e
}

func (h *eventHeap) push(x slot) {
	a := append(*h, x)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
}

func (h *eventHeap) pop() slot {
	a := *h
	n := len(a) - 1
	top, x := a[0], a[n]
	a[n] = slot{}
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			// All four children: the least of them in a two-round
			// tournament, three compares with no data-dependent loop.
			k := a[c : c+4 : c+4]
			l, r := 0, 2
			if k[1].before(k[0]) {
				l = 1
			}
			if k[3].before(k[2]) {
				r = 3
			}
			if k[r].before(k[l]) {
				l = r
			}
			m += l
		} else {
			for j := c + 1; j < n; j++ {
				if a[j].before(a[m]) {
					m = j
				}
			}
		}
		if !a[m].before(x) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = x
	return top
}

// lane is the FIFO of zero-delay events (Post, trigger releases,
// AfterFunc(0)): a ring buffer whose length is a power of two. Every
// event in it sits at the current instant and they were scheduled in
// seq order, so queueing one costs an append instead of a heap sift.
type lane struct {
	buf        []slot
	head, size int
}

func (l *lane) push(x slot) {
	if l.size == len(l.buf) {
		grown := make([]slot, max(16, 2*len(l.buf)))
		n := copy(grown, l.buf[l.head:])
		copy(grown[n:], l.buf[:l.head])
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.size)&(len(l.buf)-1)] = x
	l.size++
}

func (l *lane) front() *slot { return &l.buf[l.head] }

func (l *lane) pop() slot {
	x := l.buf[l.head]
	l.buf[l.head] = slot{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.size--
	return x
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	return s.now
}

// Since returns the virtual duration elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

func (s *Sim) schedule(d time.Duration, fn func()) *event {
	var e *event
	if n := len(s.freeEv); n > 0 {
		e = s.freeEv[n-1]
		s.freeEv = s.freeEv[:n-1]
		e.fn, e.canceled = fn, false
	} else {
		e = &event{fn: fn}
	}
	if d <= 0 {
		// Every lane event sits at now: the clock moves only when the
		// lane is empty (see step).
		e.at = s.now
		s.lane.push(slot{s.now.UnixNano(), s.seq, e})
	} else {
		// An event at the instant of the last heap push joins that
		// push's run instead of taking a slot of its own: site refresh
		// ticks and probe fan-outs schedule timers back to back for one
		// instant. Every run member is scheduled before its instant
		// begins, so no lane event falls between two of them, and any
		// other slot at that instant was pushed before the run opened
		// or after it closed: (key, seq) order holds.
		e.at = s.now.Add(d)
		if key := e.at.UnixNano(); s.tail != nil && key == s.tailKey {
			s.tail.next = e
		} else {
			s.events.push(slot{key, s.seq, e})
			s.tailKey = key
		}
		s.tail = e
	}
	s.seq++
	return e
}

// AfterFunc schedules fn to run in its own event after d of virtual
// time.
//
// AfterFunc must stay small enough to inline: a caller that discards
// the result then pays no allocation for the Timer interface value.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	e := s.schedule(d, fn)
	return SimTimer{s, e, e.gen}
}

// AfterFuncTimer is AfterFunc returning the concrete SimTimer, for an
// owner that keeps the handle in a field: storing a Timer interface
// value boxes the handle in an allocation of its own.
func (s *Sim) AfterFuncTimer(d time.Duration, fn func()) SimTimer {
	e := s.schedule(d, fn)
	return SimTimer{s, e, e.gen}
}

// at schedules fn at absolute virtual time t (immediately if t is in
// the past).
func (s *Sim) at(t time.Time, fn func()) Timer {
	return s.AfterFunc(t.Sub(s.Now()), fn)
}

// Post schedules fn to run in its own event at the current virtual
// time, after all events already scheduled for this instant (FIFO).
func (s *Sim) Post(fn func()) {
	s.schedule(0, fn)
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

// step executes the next pending event. It reports false when no
// events remain or the next event lies beyond limit (when hasLimit).
//
// The next event is the lane's head unless the heap's top sits at the
// same instant with a lower seq: a timer scheduled earlier for now. A
// heap event is never earlier than now, so this is exactly (key, seq)
// order over both queues.
func (s *Sim) step(limit time.Time, hasLimit bool) bool {
	for s.lane.size > 0 && s.lane.front().ev.canceled {
		s.recycle(s.lane.pop().ev)
	}
	for len(s.events) > 0 && s.events[0].ev.canceled {
		s.recycle(s.events.take())
	}
	fromLane := s.lane.size > 0 && (len(s.events) == 0 || !s.events[0].before(*s.lane.front()))
	var e *event
	switch {
	case fromLane:
		e = s.lane.front().ev
	case len(s.events) > 0:
		e = s.events[0].ev
	default:
		return false
	}
	if hasLimit && e.at.After(limit) {
		return false
	}
	if fromLane {
		s.lane.pop()
	} else {
		s.events.take()
	}
	s.now = e.at
	s.firing = e
	if e.fn != nil {
		e.fn()
	}
	s.firing = nil
	s.recycle(e)
	return true
}

// Run executes events until none remain. It returns the final virtual
// time. A continuation waiting on a Trigger that never fires does not
// keep Run alive.
func (s *Sim) Run() time.Time {
	for s.step(time.Time{}, false) {
	}
	return s.Now()
}

// RunUntil executes events with timestamps not after t, then sets the
// clock to t if t is later than now. The clock never moves backwards.
func (s *Sim) RunUntil(t time.Time) time.Time {
	for s.step(t, true) {
	}
	if t.After(s.now) {
		s.now = t
	}
	return s.now
}

// RunFor advances the clock by d, executing all events in the window.
func (s *Sim) RunFor(d time.Duration) time.Time {
	return s.RunUntil(s.Now().Add(d))
}

// Pending reports the number of scheduled, uncanceled events.
func (s *Sim) Pending() int {
	n := 0
	for _, x := range s.events {
		for e := x.ev; e != nil; e = e.next {
			if !e.canceled {
				n++
			}
		}
	}
	for i := 0; i < s.lane.size; i++ {
		if !s.lane.buf[(s.lane.head+i)&(len(s.lane.buf)-1)].ev.canceled {
			n++
		}
	}
	return n
}

// String describes the clock state, for debugging.
func (s *Sim) String() string {
	return fmt.Sprintf("sim(now=%s pending=%d)", s.now.Format(time.RFC3339), s.Pending())
}
