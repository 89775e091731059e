package simclock

import (
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc never fired")
	}
}

func TestRealTimerStop(t *testing.T) {
	c := Real()
	fired := make(chan struct{}, 1)
	tm := c.AfterFunc(time.Hour, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(10 * time.Millisecond):
	}
}

func TestSimAfterFuncOrder(t *testing.T) {
	s := NewSim(time.Time{})
	var order []int
	s.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	s.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	s.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestSimSameInstantFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSimNowAdvances(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var at time.Time
	s.AfterFunc(90*time.Minute, func() { at = s.Now() })
	end := s.Run()
	if got := at.Sub(start); got != 90*time.Minute {
		t.Fatalf("event fired at +%v, want +90m", got)
	}
	if !end.Equal(start.Add(90 * time.Minute)) {
		t.Fatalf("Run returned %v, want %v", end, start.Add(90*time.Minute))
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(time.Time{})
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSimNegativeDelayFiresImmediately(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var at time.Time
	s.AfterFunc(-time.Hour, func() { at = s.Now() })
	s.Run()
	if !at.Equal(start) {
		t.Fatalf("negative delay fired at %v, want %v", at, start)
	}
}

func TestSimAt(t *testing.T) {
	s := NewSim(time.Time{})
	target := s.Now().Add(42 * time.Second)
	var at time.Time
	s.At(target, func() { at = s.Now() })
	s.Run()
	if !at.Equal(target) {
		t.Fatalf("At fired at %v, want %v", at, target)
	}
}

func TestSimRunUntilStopsAtLimit(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	early, late := false, false
	s.AfterFunc(time.Second, func() { early = true })
	s.AfterFunc(time.Hour, func() { late = true })
	s.RunFor(time.Minute)
	if !early || late {
		t.Fatalf("RunFor window wrong: early=%v late=%v", early, late)
	}
	if got := s.Since(start); got != time.Minute {
		t.Fatalf("clock at +%v after RunFor(1m)", got)
	}
	s.Run()
	if !late {
		t.Fatal("remaining event lost after RunUntil")
	}
}

// TestSimRunUntilMovesClockForwardOnly holds RunUntil to its doc at
// both edges: with nothing pending the clock still reaches the target,
// and a target in the past never moves the clock backwards, even with
// an event pending.
func TestSimRunUntilMovesClockForwardOnly(t *testing.T) {
	t.Run("empty queue", func(t *testing.T) {
		s := NewSim(time.Time{})
		start := s.Now()
		if got := s.RunFor(time.Hour).Sub(start); got != time.Hour {
			t.Fatalf("RunFor(1h) on an empty queue left the clock at +%v", got)
		}
	})
	t.Run("past target", func(t *testing.T) {
		s := NewSim(time.Time{})
		start := s.Now()
		fired := false
		s.AfterFunc(2*time.Hour, func() { fired = true })
		s.RunFor(time.Hour)
		if got := s.RunUntil(start.Add(30 * time.Minute)).Sub(start); got != time.Hour {
			t.Fatalf("RunUntil(+30m) at +1h moved the clock to +%v", got)
		}
		s.Run()
		if !fired || s.Since(start) != 2*time.Hour {
			t.Fatalf("pending event: fired=%v, clock at +%v", fired, s.Since(start))
		}
	})
}

func TestSimProcessSleep(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var marks []time.Duration
	s.Go(func() {
		for i := 0; i < 3; i++ {
			s.Sleep(10 * time.Second)
			marks = append(marks, s.Since(start))
		}
	})
	s.Run()
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestSimProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := NewSim(time.Time{})
		var log []string
		s.Go(func() {
			log = append(log, "a0")
			s.Sleep(2 * time.Second)
			log = append(log, "a2")
		})
		s.Go(func() {
			log = append(log, "b0")
			s.Sleep(1 * time.Second)
			log = append(log, "b1")
			s.Sleep(2 * time.Second)
			log = append(log, "b3")
		})
		s.Run()
		return log
	}
	first := run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(first) != len(want) {
		t.Fatalf("log = %v", first)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nondeterministic run %d: %v", trial, got)
			}
		}
	}
}

func TestTriggerReleasesAllWaiters(t *testing.T) {
	s := NewSim(time.Time{})
	tr := s.NewTrigger()
	var woke []time.Duration
	start := s.Now()
	for i := 0; i < 5; i++ {
		s.Go(func() {
			tr.Wait()
			woke = append(woke, s.Since(start))
		})
	}
	s.AfterFunc(7*time.Second, tr.Fire)
	s.Run()
	if len(woke) != 5 {
		t.Fatalf("woke %d waiters, want 5", len(woke))
	}
	for _, d := range woke {
		if d != 7*time.Second {
			t.Fatalf("waiter woke at +%v, want +7s", d)
		}
	}
	if !tr.Fired() {
		t.Fatal("Fired() = false after Fire")
	}
}

func TestTriggerWaitAfterFireReturnsImmediately(t *testing.T) {
	s := NewSim(time.Time{})
	tr := s.NewTrigger()
	tr.Fire()
	tr.Fire() // idempotent
	var d time.Duration
	start := s.Now()
	s.Go(func() {
		tr.Wait()
		d = s.Since(start)
	})
	s.Run()
	if d != 0 {
		t.Fatalf("Wait after Fire took +%v", d)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	s := NewSim(time.Time{})
	q := s.NewQueue()
	var got []int
	s.Go(func() {
		for {
			v, ok := q.Get()
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	s.AfterFunc(time.Second, func() { q.Put(1); q.Put(2) })
	s.AfterFunc(2*time.Second, func() { q.Put(3); q.Close() })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueLen(t *testing.T) {
	s := NewSim(time.Time{})
	q := s.NewQueue()
	q.Put("x")
	q.Put("y")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestQueueCloseUnblocksGetter(t *testing.T) {
	s := NewSim(time.Time{})
	q := s.NewQueue()
	var ok = true
	s.Go(func() { _, ok = q.Get() })
	s.AfterFunc(time.Second, q.Close)
	s.Run()
	if ok {
		t.Fatal("Get on closed empty queue returned ok=true")
	}
}

func TestPendingCountsUncanceled(t *testing.T) {
	s := NewSim(time.Time{})
	a := s.AfterFunc(time.Second, func() {})
	s.AfterFunc(2*time.Second, func() {})
	a.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestSleepOutsideProcessPanics(t *testing.T) {
	s := NewSim(time.Time{})
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep outside process did not panic")
		}
	}()
	s.Sleep(time.Second)
}

func TestGoFromWithinEvent(t *testing.T) {
	s := NewSim(time.Time{})
	var ran bool
	s.AfterFunc(time.Second, func() {
		s.Go(func() {
			s.Sleep(time.Second)
			ran = true
		})
	})
	end := s.Run()
	if !ran {
		t.Fatal("nested process never ran")
	}
	if got := end.Sub(NewSim(time.Time{}).Now()); got != 2*time.Second {
		t.Fatalf("final time +%v, want +2s", got)
	}
}
