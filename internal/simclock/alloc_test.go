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

// TestAfterFuncAllocs: a timer costs nothing beyond its pooled event,
// whether its handle is discarded, stopped, or kept by an owner that
// outlives the call: a field of a heap object or a closure the engine
// holds. Timer must stay a plain value: as an interface, a kept handle
// is boxed, one allocation per exclusive attempt and per glide-in wait.
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
		tm := s.AfterFunc(time.Second, fn)
		tm.Stop()
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("AfterFunc then Stop: %v allocations, want 0", got)
	}
	owner := &timerOwner{}
	if got := testing.AllocsPerRun(1000, func() {
		owner.timer = s.AfterFunc(time.Second, fn)
		owner.timer.Stop()
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("AfterFunc kept in a heap field: %v allocations, want 0", got)
	}
	// The closure is built once, as a long-lived owner's is; each run
	// re-arms the timer it captured.
	var tm Timer
	stop := func() { tm.Stop() }
	if got := testing.AllocsPerRun(1000, func() {
		tm = s.AfterFunc(time.Second, fn)
		s.Post(stop)
		s.RunFor(time.Second)
	}); got != 0 {
		t.Errorf("AfterFunc captured by an escaping closure: %v allocations, want 0", got)
	}
}

// timerOwner keeps a Timer in a field, as vmslot's machines do.
type timerOwner struct{ timer Timer }

// TestEmbeddedTriggerAllocs: a trigger that lives in its owner, with
// one waiter and one callback, costs nothing to arm, fire and dispatch.
// A first-of wait costs nothing over sources whose first callback slot
// is free, and one bound w.Fire over any number of sources whose slot
// is taken (it cost that one binding over free sources too, before
// a source kept w as a pointer).
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
	}); got != 0 {
		t.Errorf("WaitAny over two fresh triggers: %v allocations, want 0", got)
	}
	// Sources whose first slot holds a callback: one binding of w.Fire
	// serves both, beside each source's overflow list and its array.
	if got := testing.AllocsPerRun(1000, func() {
		s.InitTrigger(&owner.a)
		s.InitTrigger(&owner.b)
		s.InitTrigger(&owner.w)
		owner.a.OnFire(cb)
		owner.b.OnFire(cb)
		owner.w.WaitAny(cont, &owner.a, &owner.b)
		owner.a.Fire()
		owner.b.Fire()
		s.RunFor(time.Second)
	}); got != 5 {
		t.Errorf("WaitAny over two triggers with a callback each: %v allocations, want 5", got)
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

// TestSameInstantRunBudget: timers scheduled back to back for one
// instant, the shape of a site refresh sweep or a probe fan-out, share
// one heap slot (a run; see schedule) and dispatch in scheduling order.
func TestSameInstantRunBudget(t *testing.T) {
	const n = 800
	s := NewSim(time.Time{})
	var got []int
	for i := range n {
		s.AfterFunc(time.Minute, func() { got = append(got, i) })
	}
	if len(s.events) != 1 {
		t.Errorf("%d timers for one instant occupy %d heap slots, want 1", n, len(s.events))
	}
	if p := s.Pending(); p != n {
		t.Errorf("Pending = %d, want %d", p, n)
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("%d of %d timers ran", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("dispatch %d ran timer %d, want scheduling order", i, v)
		}
	}
}
