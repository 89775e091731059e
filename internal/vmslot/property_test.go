package vmslot

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// TestSchedulerInvariantsUnderRandomLoad runs randomized slot
// workloads and checks the scheduler's conservation laws:
//
//  1. Work conservation: total CPU handed out equals total busy time,
//     and the machine is never idle while work is runnable.
//  2. Completeness: every Run eventually finishes and each slot's Used
//     equals exactly the work it requested.
//  3. Proportionality: two continuously backlogged slots split the CPU
//     in their ticket ratio within a small tolerance.
func TestSchedulerInvariantsUnderRandomLoad(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := simclock.NewSim(time.Time{})
		m := NewMachine(sim)

		nSlots := 2 + rng.Intn(3)
		type slotState struct {
			slot      *Slot
			requested time.Duration
			pending   int
		}
		states := make([]*slotState, nSlots)
		for i := range states {
			tickets := 10 + rng.Intn(190)
			states[i] = &slotState{slot: m.NewSlot("s", tickets)}
		}

		// Random bursts arriving over one simulated hour.
		for i := 0; i < 20+rng.Intn(20); i++ {
			st := states[rng.Intn(nSlots)]
			work := time.Duration(1+rng.Intn(120)) * time.Second
			at := time.Duration(rng.Intn(3600)) * time.Second
			st.requested += work
			st.pending++
			sim.AfterFunc(at, func() {
				done := st.slot.Start(work)
				done.OnFire(func() { st.pending-- })
			})
		}
		sim.RunFor(100 * time.Hour)

		var total time.Duration
		for i, st := range states {
			if st.pending != 0 {
				t.Fatalf("seed %d: slot %d has %d unfinished runs", seed, i, st.pending)
			}
			if st.slot.consumed() != st.requested {
				t.Fatalf("seed %d: slot %d used %v, requested %v", seed, i, st.slot.consumed(), st.requested)
			}
			total += st.requested
		}
		if m.busy() != total {
			t.Fatalf("seed %d: busy %v != total work %v", seed, m.busy(), total)
		}
		if m.Runnable() != 0 {
			t.Fatalf("seed %d: %d runs left", seed, m.Runnable())
		}
	}
}

func TestProportionalityRandomTickets(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		ta := 10 + rng.Intn(190)
		tb := 10 + rng.Intn(190)
		sim := simclock.NewSim(time.Time{})
		m := NewMachine(sim)
		a := m.NewSlot("a", ta)
		b := m.NewSlot("b", tb)
		a.Start(1000 * time.Hour)
		b.Start(1000 * time.Hour)
		sim.RunFor(60 * time.Second)
		gotA := a.consumed().Seconds() / (a.consumed().Seconds() + b.consumed().Seconds())
		wantA := float64(ta) / float64(ta+tb)
		if math.Abs(gotA-wantA) > 0.03 {
			t.Fatalf("seed %d: tickets %d:%d share %.3f, want %.3f", seed, ta, tb, gotA, wantA)
		}
	}
}
