package simclock

import (
	"testing"
	"time"
	"unsafe"
)

// The engine's allocation budgets, after warm-up (the event free list
// and the heap's backing array are grown once and reused).

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// TestAfterFuncAllocs: a timer whose handle is discarded costs
// nothing. This holds only while AfterFunc inlines into its caller;
// routed through a helper it returns a boxed Timer, one allocation per
// call on the hottest path of every replay.
func TestAfterFuncAllocs(t *testing.T) {
	skipUnderRace(t)
	s := NewSim(time.Time{})
	fn := func() {}
	if got := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(time.Second, fn)
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("AfterFunc with the result discarded: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		tm := s.AfterFuncTimer(time.Second, fn)
		tm.Stop()
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("AfterFuncTimer then Stop: %v allocations, want 0", got)
	}
}

// TestEmbeddedTriggerAllocs: a trigger that lives in its owner, with
// one waiter and one callback, costs nothing to arm, fire and dispatch;
// a first-of wait over two sources costs only the bound w.Fire.
func TestEmbeddedTriggerAllocs(t *testing.T) {
	skipUnderRace(t)
	s := NewSim(time.Time{})
	var owner struct{ a, b, w Trigger }
	cont, cb := func() {}, func() {}
	if got := testing.AllocsPerRun(1000, func() {
		s.InitTrigger(&owner.a)
		owner.a.WaitThen(cont)
		owner.a.OnFire(cb)
		owner.a.Fire()
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("embedded trigger: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		s.InitTrigger(&owner.a)
		s.InitTrigger(&owner.b)
		s.InitTrigger(&owner.w)
		owner.w.WaitAny(cont, &owner.a, &owner.b)
		owner.b.Fire()
		owner.a.Fire()
		s.RunFor(time.Second)
	}); got != 1 {
		t.Errorf("WaitAny over two triggers: %v allocations, want 1 (the bound Fire)", got)
	}
}

// TestEngineSizeBudget holds the engine's two hot structs to their
// sizes on a 64-bit host: every busy simulation holds millions of
// triggers (embedded in job state) and tens of thousands of pooled
// events, so a field added to either shows in bytes per job.
func TestEngineSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(Trigger{}); got > 40 {
		t.Errorf("Trigger is %d bytes, budget 40", got)
	}
	if got := unsafe.Sizeof(event{}); got > 64 {
		t.Errorf("event is %d bytes, budget 64", got)
	}
}
