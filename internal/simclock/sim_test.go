package simclock

import (
	"strings"
	"testing"
	"time"
)

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

func TestTimerStop(t *testing.T) {
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

// TestSimAt: a timer set for an absolute instant, by the distance from
// now, fires at that instant.
func TestSimAt(t *testing.T) {
	s := NewSim(time.Time{})
	target := s.Now().Add(42 * time.Second)
	var at time.Time
	s.AfterFunc(target.Sub(s.Now()), func() { at = s.Now() })
	s.Run()
	if !at.Equal(target) {
		t.Fatalf("timer for an absolute instant fired at %v, want %v", at, target)
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

func TestTriggerReleasesAllWaiters(t *testing.T) {
	s := NewSim(time.Time{})
	tr := s.NewTrigger()
	var woke []time.Duration
	start := s.Now()
	for i := 0; i < 5; i++ {
		s.Post(func() {
			tr.WaitThen(func() { woke = append(woke, s.Since(start)) })
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

func TestPendingCountsUncanceled(t *testing.T) {
	s := NewSim(time.Time{})
	a := s.AfterFunc(time.Second, func() {})
	s.AfterFunc(2*time.Second, func() {})
	a.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

// TestSimStringCountsLivePending: the debug description counts what
// Pending counts, not the stopped events still on the heap.
func TestSimStringCountsLivePending(t *testing.T) {
	s := NewSim(time.Time{})
	a := s.AfterFunc(time.Second, func() {})
	s.AfterFunc(2*time.Second, func() {})
	a.Stop()
	if got := s.String(); !strings.Contains(got, "pending=1)") {
		t.Fatalf("String() = %q, want pending=1", got)
	}
}
