package vmslot

import (
	"math"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

func TestSingleSlotRunsAtFullSpeed(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	s := m.NewSlot("only", 100)
	start := sim.Now()
	var elapsed time.Duration
	sim.Post(func() {
		s.Start(time.Second).WaitThen(func() { elapsed = sim.Since(start) })
	})
	sim.Run()
	if elapsed != time.Second {
		t.Fatalf("uncontended 1s of work took %v", elapsed)
	}
	if s.consumed() != time.Second {
		t.Fatalf("Used = %v", s.consumed())
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	s := m.NewSlot("s", 100)
	done := false
	sim.Post(func() {
		s.Start(0).WaitThen(func() { done = true })
	})
	sim.Run()
	if !done || sim.Since(simclock.NewSim(time.Time{}).Now()) != 0 {
		t.Fatalf("zero work: done=%v now=%v", done, sim.Now())
	}
}

// equalTickets: two slots with equal tickets share the CPU evenly.
func TestEqualSharesSplitEvenly(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	a := m.NewSlot("a", 50)
	b := m.NewSlot("b", 50)
	var ea, eb time.Duration
	start := sim.Now()
	sim.Post(func() { a.Start(time.Second).WaitThen(func() { ea = sim.Since(start) }) })
	sim.Post(func() { b.Start(time.Second).WaitThen(func() { eb = sim.Since(start) }) })
	sim.Run()
	// Both need ~2s elapsed: each gets half the CPU.
	for _, e := range []time.Duration{ea, eb} {
		if e < 1900*time.Millisecond || e > 2100*time.Millisecond {
			t.Fatalf("elapsed = %v / %v, want ~2s each", ea, eb)
		}
	}
}

// TestPerformanceLossRatio checks the core Figure 8 property: with
// interactive=100 tickets and batch=PL tickets, a CPU burst of W takes
// about W*(1+PL/100) under continuous batch load.
func TestPerformanceLossRatio(t *testing.T) {
	for _, pl := range []int{5, 10, 25, 50} {
		sim := simclock.NewSim(time.Time{})
		m := NewMachine(sim)
		inter := m.NewSlot("interactive", 100)
		batch := m.NewSlot("batch", pl)

		// Batch load: effectively infinite work.
		batch.Start(10 * time.Hour)

		start := sim.Now()
		var elapsed time.Duration
		sim.Post(func() {
			inter.Start(time.Second).WaitThen(func() { elapsed = sim.Since(start) })
		})
		sim.RunFor(time.Hour)

		want := 1 + float64(pl)/100
		got := elapsed.Seconds()
		if math.Abs(got-want) > 0.03 {
			t.Errorf("PL=%d: burst slowdown %.3f, want ~%.3f", pl, got, want)
		}
	}
}

// TestWorkConservation: a zero-ticket background slot gets the CPU
// whenever the ticketed slot is idle, and never while it is runnable.
func TestWorkConservation(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	inter := m.NewSlot("interactive", 100)
	bg := m.NewSlot("background", 0)

	bg.Start(10 * time.Hour)

	sim.Post(func() {
		inter.Start(500 * time.Millisecond).WaitThen(func() {
			sim.AfterFunc(300*time.Millisecond, func() { // "I/O" phase
				inter.Start(500 * time.Millisecond)
			})
		})
	})
	sim.RunFor(1500 * time.Millisecond)

	// Background consumed at least most of the I/O window, plus the
	// tail after the second burst, and the interactive job was never
	// slowed: total interactive elapsed = 0.5 + 0.3 + 0.5 = 1.3s.
	if bg.consumed() < 280*time.Millisecond {
		t.Fatalf("background used only %v during idle windows", bg.consumed())
	}
	if inter.consumed() != time.Second {
		t.Fatalf("interactive used %v, want 1s", inter.consumed())
	}
	// The machine is work-conserving: busy for the whole window (the
	// final slice may be dispatched at the window edge, hence the one
	// extra quantum of slack).
	if got := m.busy(); got < 1490*time.Millisecond || got > 1510*time.Millisecond {
		t.Fatalf("machine busy %v, want ~full 1.5s window", got)
	}
}

// TestStrictPriorityWithZeroTickets: with PL=0 the batch slot makes no
// progress while the interactive slot is continuously runnable.
func TestStrictPriorityWithZeroTickets(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	inter := m.NewSlot("interactive", 100)
	batch := m.NewSlot("batch", 0)
	batch.Start(10 * time.Hour)
	var elapsed, batchUsed time.Duration
	start := sim.Now()
	sim.Post(func() {
		inter.Start(2 * time.Second).WaitThen(func() {
			elapsed = sim.Since(start)
			batchUsed = batch.consumed() // before work conservation hands the CPU back
		})
	})
	sim.RunUntil(start.Add(2*time.Second + 50*time.Millisecond))
	// The batch slot may hold at most one quantum (it was dispatched
	// before the interactive run arrived).
	if batchUsed > 10*time.Millisecond {
		t.Fatalf("batch used %v under strict priority", batchUsed)
	}
	if elapsed > 2*time.Second+10*time.Millisecond {
		t.Fatalf("interactive took %v", elapsed)
	}
}

// TestCatchupBoundedAfterSleep: a woken slot repays at most MaxCatchup
// of deficit exclusively.
func TestCatchupBoundedAfterSleep(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim, WithMaxCatchup(50*time.Millisecond))
	a := m.NewSlot("a", 100)
	b := m.NewSlot("b", 100)
	b.Start(10 * time.Hour)
	sim.RunFor(5 * time.Second) // b runs alone, accumulating pass
	var aElapsed time.Duration
	sim.Post(func() {
		t0 := sim.Now()
		a.Start(time.Second).WaitThen(func() { aElapsed = sim.Since(t0) })
	})
	sim.RunFor(time.Hour)
	// Without the bound, a would run its full 1s exclusively (deficit
	// 5s). With a 50ms bound it runs ~50ms exclusively then shares:
	// elapsed ~ 50ms + 950ms*2 = 1.95s.
	if aElapsed < 1800*time.Millisecond {
		t.Fatalf("woken slot monopolized CPU: elapsed %v", aElapsed)
	}
	if aElapsed > 2*time.Second {
		t.Fatalf("woken slot got no catch-up: elapsed %v", aElapsed)
	}
}

func TestSetTicketsChangesShare(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	a := m.NewSlot("a", 100)
	b := m.NewSlot("b", 100)
	b.Start(10 * time.Hour)
	// Lower b's share mid-flight, as the agent does when an
	// interactive job arrives.
	sim.AfterFunc(0, func() { b.SetTickets(10) })
	var elapsed time.Duration
	sim.Post(func() {
		t0 := sim.Now()
		a.Start(time.Second).WaitThen(func() { elapsed = sim.Since(t0) })
	})
	sim.RunFor(time.Hour)
	want := 1.10
	if math.Abs(elapsed.Seconds()-want) > 0.05 {
		t.Fatalf("elapsed %.3fs after SetTickets(10), want ~%.2fs", elapsed.Seconds(), want)
	}
}

func TestShareConvergenceProperty(t *testing.T) {
	// Long-run shares converge to ticket ratios for several ratios.
	for _, tc := range []struct{ ta, tb int }{{100, 10}, {100, 25}, {75, 25}, {60, 40}} {
		sim := simclock.NewSim(time.Time{})
		m := NewMachine(sim)
		a := m.NewSlot("a", tc.ta)
		b := m.NewSlot("b", tc.tb)
		a.Start(10 * time.Hour)
		b.Start(10 * time.Hour)
		sim.RunFor(10 * time.Second)
		total := a.consumed().Seconds() + b.consumed().Seconds()
		gotA := a.consumed().Seconds() / total
		wantA := float64(tc.ta) / float64(tc.ta+tc.tb)
		if math.Abs(gotA-wantA) > 0.02 {
			t.Errorf("tickets %d:%d — share %.3f, want %.3f", tc.ta, tc.tb, gotA, wantA)
		}
		// Work conservation: CPU never idle while work pending.
		if busy := m.busy(); busy < 9999*time.Millisecond {
			t.Errorf("tickets %d:%d — busy %v of 10s", tc.ta, tc.tb, busy)
		}
	}
}

func TestCloseRemovesSlot(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	a := m.NewSlot("a", 100)
	b := m.NewSlot("b", 100)
	b.Start(time.Hour)
	b.Close()
	var elapsed time.Duration
	sim.Post(func() {
		t0 := sim.Now()
		a.Start(time.Second).WaitThen(func() { elapsed = sim.Since(t0) })
	})
	sim.RunFor(time.Hour)
	// With b closed, a runs uncontended (modulo b's first quantum,
	// which may already be dispatched).
	if elapsed > time.Second+20*time.Millisecond {
		t.Fatalf("elapsed %v after closing contender", elapsed)
	}
}

func TestRunOnClosedSlotPanics(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	s := m.NewSlot("s", 100)
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Start on closed slot did not panic")
		}
	}()
	s.Start(time.Second)
}

func TestNegativeTicketsPanics(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	defer func() {
		if recover() == nil {
			t.Fatal("negative tickets did not panic")
		}
	}()
	m.NewSlot("s", -1)
}

func TestRunnableCount(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	a := m.NewSlot("a", 100)
	a.Start(time.Second)
	a.Start(time.Second)
	if m.Runnable() != 2 {
		t.Fatalf("Runnable = %d", m.Runnable())
	}
	sim.Run()
	if m.Runnable() != 0 {
		t.Fatalf("Runnable = %d after drain", m.Runnable())
	}
}

// TestFigure8Shape reproduces the qualitative Figure 8 result at unit
// scale: measured CPU loss slightly under the PerformanceLoss value
// because the batch job consumes part of its share during the
// interactive job's I/O phases.
func TestFigure8Shape(t *testing.T) {
	iter := func(pl int, withBatch bool) (cpuMean float64) {
		sim := simclock.NewSim(time.Time{})
		m := NewMachine(sim)
		inter := m.NewSlot("interactive", 100)
		if withBatch {
			batch := m.NewSlot("batch", pl)
			batch.Start(1000 * time.Hour)
		}
		const n = 50
		var total time.Duration
		var t0 time.Time
		i := 0
		var iterate func()
		iterate = func() {
			if i == n {
				return
			}
			i++
			sim.AfterFunc(6*time.Millisecond, func() { // I/O op
				t0 = sim.Now()
				inter.Start(921 * time.Millisecond).WaitThen(func() { // CPU burst
					total += sim.Since(t0)
					iterate()
				})
			})
		}
		sim.Post(iterate)
		sim.RunFor(2 * time.Hour)
		return total.Seconds() / n
	}

	ref := iter(0, false)
	if math.Abs(ref-0.921) > 0.001 {
		t.Fatalf("reference burst %.4fs, want 0.921s", ref)
	}
	pl10 := iter(10, true)
	pl25 := iter(25, true)
	loss10 := pl10/ref - 1
	loss25 := pl25/ref - 1
	// Paper: 8% measured for PL=10, 22% for PL=25 — slightly under the
	// nominal attribute value, and ordered.
	if !(loss10 > 0.04 && loss10 <= 0.101) {
		t.Errorf("PL=10 loss = %.3f, want in (0.04, 0.10]", loss10)
	}
	if !(loss25 > 0.15 && loss25 <= 0.251) {
		t.Errorf("PL=25 loss = %.3f, want in (0.15, 0.25]", loss25)
	}
	if loss25 <= loss10 {
		t.Errorf("losses not ordered: PL10=%.3f PL25=%.3f", loss10, loss25)
	}
}
