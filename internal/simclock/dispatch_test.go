package simclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestSameTimestampFIFO pins the Clock contract that events scheduled
// for the same virtual instant dispatch in scheduling order, across
// every scheduling source: AfterFunc (by delay or to an absolute
// instant), Post, WaitThen registered
// before the fire or from inside an event, and WaitAny.
// Byte-reproducible traces depend on this.
func TestSameTimestampFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	rec := func(tag string) func() { return func() { got = append(got, tag) } }

	// Everything below lands at now+1s. Sequence numbers are drawn when
	// the event is actually scheduled: AfterFunc at call time, an
	// AfterFunc inside a posted event when that event runs (here at
	// t=0, after every setup call), and Trigger waiters when Fire runs.
	s.AfterFunc(time.Second, rec("afterfunc-1"))
	s.Post(func() { s.AfterFunc(time.Second, rec("posted-afterfunc")) })
	s.AfterFunc(time.Second, rec("afterfunc-2"))
	at := s.Now().Add(time.Second)
	s.AfterFunc(at.Sub(s.Now()), rec("at"))
	tr := s.NewTrigger()
	s.AfterFunc(time.Second, func() { got = append(got, "fire"); tr.Fire() })
	// Waiters release in registration order: the first WaitThen
	// continuation registers here at setup, the two posted ones when
	// their events run at t=0. Each releases in its own event scheduled
	// by Fire, so after every event already queued for t=1s. WaitAny
	// registers first of all, but through an OnFire callback of tr:
	// callbacks run after Fire has scheduled tr's waiters, so its
	// continuation comes last.
	first := s.NewTrigger()
	first.WaitAny(rec("waitany"), tr)
	s.Post(func() { tr.WaitThen(rec("waitthen-event-1")) })
	tr.WaitThen(rec("waitthen"))
	s.Post(func() { tr.WaitThen(rec("waitthen-event-2")) })
	s.AfterFunc(time.Second, rec("afterfunc-3"))
	s.Run()

	want := []string{
		"afterfunc-1", "afterfunc-2", "at", "fire",
		"afterfunc-3", "posted-afterfunc", "waitthen", "waitthen-event-1", "waitthen-event-2",
		"waitany",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("same-timestamp dispatch order:\n got  %v\n want %v", got, want)
	}
}

// TestPostRunsAfterPendingEvents pins Post's FIFO slot: it runs after
// events already scheduled for the current instant.
func TestPostRunsAfterPendingEvents(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	s.AfterFunc(0, func() { got = append(got, "a") })
	s.Post(func() { got = append(got, "b") })
	s.Post(func() { got = append(got, "c") })
	s.Post(func() { got = append(got, "d") })
	s.Run()
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("Post order = %v, want [a b c d]", got)
	}
}

// TestTimerStopWhileFiring pins a race fixed in this package: Stop
// called while the timer's own callback is on the stack
// must report false (the call was not prevented), even though the
// event has not been recycled yet.
func TestTimerStopWhileFiring(t *testing.T) {
	s := NewSim(time.Time{})
	var tm Timer
	fired := false
	tm = s.AfterFunc(time.Second, func() {
		fired = true
		if tm.Stop() {
			t.Error("Stop during own fire reported true; callback is running")
		}
	})
	s.Run()
	if !fired {
		t.Fatal("timer never fired")
	}
	if tm.Stop() {
		t.Error("Stop after fire reported true")
	}
}

// TestTimerStopSameTick pins the owner-cancels-at-the-same-tick shape:
// an event at tick T stopping a timer also scheduled for T (but not
// yet dispatched) prevents the callback and Stop reports true.
func TestTimerStopSameTick(t *testing.T) {
	s := NewSim(time.Time{})
	fired := false
	var tm Timer
	s.AfterFunc(time.Second, func() {
		if !tm.Stop() {
			t.Error("Stop on not-yet-dispatched same-tick timer reported false")
		}
	})
	tm = s.AfterFunc(time.Second, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("stopped timer fired anyway")
	}
}

// TestTimerStopInterleavings is a seeded property test over random
// schedule/stop interleavings. Invariants, for every timer:
//
//   - Stop returned true  ⇒ the callback never runs.
//   - Stop returned false ⇒ the callback runs exactly once (it had
//     already fired, was firing at that moment, or a previous Stop
//     already claimed it).
//   - No callback runs twice; callbacks of never-stopped timers run.
func TestTimerStopInterleavings(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(time.Time{})

		const n = 40
		type tstate struct {
			timer   Timer
			fires   int
			stopped bool // some Stop call returned true
		}
		timers := make([]*tstate, n)
		for i := 0; i < n; i++ {
			ts := &tstate{}
			timers[i] = ts
			d := time.Duration(rng.Intn(5)) * time.Second
			ts.timer = s.AfterFunc(d, func() { ts.fires++ })
		}
		// Random stop attempts at random ticks, including ticks where
		// the victim fires; several victims get multiple attempts.
		for k := 0; k < n; k++ {
			victim := timers[rng.Intn(n)]
			at := time.Duration(rng.Intn(6)) * time.Second
			s.AfterFunc(at, func() {
				if victim.timer.Stop() {
					if victim.stopped {
						t.Fatalf("seed %d: two Stop calls both returned true", seed)
					}
					victim.stopped = true
				}
			})
		}
		s.Run()

		for i, ts := range timers {
			switch {
			case ts.stopped && ts.fires != 0:
				t.Fatalf("seed %d timer %d: Stop returned true but callback ran %d times", seed, i, ts.fires)
			case !ts.stopped && ts.fires != 1:
				t.Fatalf("seed %d timer %d: never stopped but callback ran %d times", seed, i, ts.fires)
			}
		}
	}
}

// TestWaitThenAfterFire pins that WaitThen on an already-fired trigger
// runs the continuation inline, in the caller's event.
func TestWaitThenAfterFire(t *testing.T) {
	s := NewSim(time.Time{})
	tr := s.NewTrigger()
	tr.Fire()
	ran := false
	tr.WaitThen(func() { ran = true })
	if !ran {
		t.Fatal("WaitThen on fired trigger did not run inline")
	}
}

// TestWaitAnyKeepsCallbackOrder: a source runs its OnFire callbacks in
// registration order whether a WaitAny registration took its first
// callback slot (kept as a pointer) or came after a callback there (a
// bound Fire in the overflow list).
func TestWaitAnyKeepsCallbackOrder(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	rec := func(tag string) func() { return func() { got = append(got, tag) } }
	wait := func(tag string, src *Trigger) {
		w := s.NewTrigger()
		w.OnFire(rec(tag))
		w.WaitAny(func() {}, src)
	}

	callbackFirst := s.NewTrigger()
	callbackFirst.OnFire(rec("a"))
	wait("w1", callbackFirst)
	callbackFirst.OnFire(rec("b"))

	waitFirst := s.NewTrigger()
	wait("w2", waitFirst)
	waitFirst.OnFire(rec("c"))
	wait("w3", waitFirst)

	callbackFirst.Fire()
	waitFirst.Fire()
	want := []string{"a", "w1", "b", "w2", "c", "w3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("callback order:\n got  %v\n want %v", got, want)
	}
}
