package simclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestSameTimestampFIFO pins the Clock contract that events scheduled
// for the same virtual instant dispatch in scheduling order, across
// every scheduling source: AfterFunc, Post, Go, Sleep wake-ups and
// Trigger releases. Byte-reproducible traces depend on this.
func TestSameTimestampFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	rec := func(tag string) func() { return func() { got = append(got, tag) } }

	// Everything below lands at now+1s. Sequence numbers are drawn when
	// the event is actually scheduled: AfterFunc/At at call time, a
	// Sleep wake-up when the process executes the Sleep (here at t=0,
	// after every setup call), and Trigger waiters when Fire runs.
	s.AfterFunc(time.Second, rec("afterfunc-1"))
	s.Go(func() { s.Sleep(time.Second); got = append(got, "sleep-wake") })
	s.AfterFunc(time.Second, rec("afterfunc-2"))
	s.At(s.Now().Add(time.Second), rec("at"))
	tr := s.NewTrigger()
	s.AfterFunc(time.Second, func() { got = append(got, "fire"); tr.Fire() })
	// Waiters release in registration order: the WaitThen continuation
	// registers here at setup, the two Wait processes register when
	// they execute at t=0. Each releases in its own event scheduled by
	// Fire, so after every event already queued for t=1s.
	s.Go(func() { tr.Wait(); got = append(got, "wait-1") })
	tr.WaitThen(rec("waitthen"))
	s.Go(func() { tr.Wait(); got = append(got, "wait-2") })
	s.AfterFunc(time.Second, rec("afterfunc-3"))
	s.Run()

	want := []string{
		"afterfunc-1", "afterfunc-2", "at", "fire",
		"afterfunc-3", "sleep-wake", "waitthen", "wait-1", "wait-2",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("same-timestamp dispatch order:\n got  %v\n want %v", got, want)
	}
}

// TestPostRunsAfterPendingEvents pins Post's FIFO slot: it runs after
// events already scheduled for the current instant, like Go does.
func TestPostRunsAfterPendingEvents(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	s.AfterFunc(0, func() { got = append(got, "a") })
	s.Post(func() { got = append(got, "b") })
	s.Go(func() { got = append(got, "c") })
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
// runs the continuation inline, matching Wait's immediate return.
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

// TestBlockingFromEvent pins the adapter's contract when the flow
// calls it from a plain event: the body starts inside that event (no
// event of its own, so nothing queued for the same instant overtakes
// it), control returns to the caller when the body first blocks, and
// done runs in the process after the body returns.
func TestBlockingFromEvent(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	rec := func(tag string) { got = append(got, tag) }
	run := Blocking(s, func(tag string) {
		rec(tag + ":start")
		s.Sleep(time.Second)
		rec(tag + ":woke")
	})
	s.Post(func() {
		before := s.seq
		run("body", func() {
			rec("done")
			s.Sleep(0) // done still runs in the process
			rec("done:woke")
		})
		if s.seq != before+1 {
			t.Errorf("start drew %d sequence numbers, want 1 (the body's Sleep)", s.seq-before)
		}
		rec("caller")
	})
	s.Post(func() { rec("queued-behind") })
	s.Run()
	want := "[body:start caller queued-behind body:woke done done:woke]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if s.nprocs != 0 || s.cur != nil {
		t.Fatalf("leaked process state: %v cur=%v", s, s.cur)
	}
}

// TestBlockingNested starts a body from inside another process — the
// shape a trigger callback fired by a process produces — and checks
// that both processes keep their own identity across the hand-offs.
func TestBlockingNested(t *testing.T) {
	s := NewSim(time.Time{})
	var got []string
	rec := func(tag string) { got = append(got, tag) }
	inner := Blocking(s, func(struct{}) {
		rec("inner:start")
		s.Sleep(2 * time.Second)
		rec("inner:woke")
	})
	tr := s.NewTrigger()
	tr.OnFire(func() { inner(struct{}{}, func() { rec("inner:done") }) })
	s.Go(func() {
		rec("outer:start")
		tr.Fire() // runs the callback, and with it inner's first stretch, inline
		rec("outer:resumed")
		s.Sleep(time.Second) // must suspend outer, not inner
		rec("outer:woke")
	})
	s.Run()
	want := "[outer:start inner:start outer:resumed outer:woke inner:woke inner:done]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if s.nprocs != 0 {
		t.Fatalf("leaked processes: %v", s)
	}
}

// TestBlockingNeverBlocks: a body that returns without blocking runs
// to completion, done included, before the adapter returns, schedules
// nothing, and its worker is reusable at once.
func TestBlockingNeverBlocks(t *testing.T) {
	s := NewSim(time.Time{})
	ran, finished := 0, 0
	run := Blocking(s, func(n int) { ran += n })
	s.Post(func() {
		for i := 0; i < 3; i++ {
			run(1, func() { finished++ })
			if ran != i+1 || finished != i+1 {
				t.Errorf("call %d: ran=%d finished=%d before the adapter returned", i, ran, finished)
			}
		}
	})
	s.Run()
	if s.seq != 1 {
		t.Fatalf("%d events scheduled, want only the Post", s.seq)
	}
	if len(s.freePr) != 1 || s.nprocs != 0 {
		t.Fatalf("workers not recycled: %d pooled, %d live", len(s.freePr), s.nprocs)
	}
}
