package fairshare

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"crossbroker/internal/simclock"
)

func mgr() *Manager {
	return New(simclock.NewSim(time.Time{}), Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
}

func TestAppFactorOrdering(t *testing.T) {
	// Paper invariant: interactive >= batch >= yielded batch, for every
	// PerformanceLoss value.
	for pl := 0; pl <= 100; pl += 5 {
		i := appFactor(InteractiveClass, pl)
		b := appFactor(BatchClass, pl)
		y := appFactor(YieldedBatchClass, pl)
		if !(i >= b && b >= y) {
			t.Fatalf("PL=%d: factors i=%v b=%v y=%v violate ordering", pl, i, b, y)
		}
	}
	if appFactor(BatchClass, 0) != 1 {
		t.Fatal("batch af != 1")
	}
	if appFactor(YieldedBatchClass, 25) != 0.25 {
		t.Fatalf("yielded af = %v", appFactor(YieldedBatchClass, 25))
	}
	if appFactor(InteractiveClass, 25) != 1.75 {
		t.Fatalf("interactive af = %v", appFactor(InteractiveClass, 25))
	}
}

func TestBetaHalfLife(t *testing.T) {
	m := New(simclock.NewSim(time.Time{}), Config{HalfLife: time.Hour, UpdateInterval: time.Hour})
	if math.Abs(m.beta-0.5) > 1e-12 {
		t.Fatalf("beta = %v with δt = h, want 0.5", m.beta)
	}
}

func TestPriorityWorsensWithUsage(t *testing.T) {
	m := mgr()
	m.SetTotal(100)
	if err := m.Allocate("j1", "alice", 10, BatchClass, 0); err != nil {
		t.Fatal(err)
	}
	p0 := m.Priority("alice")
	m.Tick()
	p1 := m.Priority("alice")
	if !(p1 > p0) {
		t.Fatalf("priority did not worsen: %v -> %v", p0, p1)
	}
	// Usage = 1 * 10/100 = 0.1.
	if got := m.Usage("alice"); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("usage = %v", got)
	}
}

func TestPriorityDecaysWithHalfLife(t *testing.T) {
	m := New(simclock.NewSim(time.Time{}), Config{HalfLife: time.Hour, UpdateInterval: time.Hour})
	m.SetTotal(10)
	m.Allocate("j", "u", 10, BatchClass, 0)
	m.Tick()
	m.Release("j")
	p := m.Priority("u")
	m.Tick() // one half-life with zero usage
	if got := m.Priority("u"); math.Abs(got-p/2) > 1e-12 {
		t.Fatalf("after one half-life: %v, want %v", got, p/2)
	}
}

func TestInteractiveWorsensFasterThanBatch(t *testing.T) {
	m := mgr()
	m.SetTotal(10)
	m.Allocate("jb", "batchuser", 5, BatchClass, 0)
	m.Allocate("ji", "interuser", 5, InteractiveClass, 10)
	m.Tick()
	if !(m.Priority("interuser") > m.Priority("batchuser")) {
		t.Fatalf("interactive %v not worse than batch %v",
			m.Priority("interuser"), m.Priority("batchuser"))
	}
}

func TestYieldedBatchCompensated(t *testing.T) {
	m := mgr()
	m.SetTotal(10)
	m.Allocate("jb", "victim", 5, BatchClass, 0)
	m.Allocate("jb2", "normal", 5, BatchClass, 0)
	// victim's machine is invaded by an interactive job with PL=25.
	if err := m.Reclass("jb", YieldedBatchClass, 25); err != nil {
		t.Fatal(err)
	}
	m.Tick()
	if !(m.Priority("victim") < m.Priority("normal")) {
		t.Fatalf("yielded user %v not compensated vs %v",
			m.Priority("victim"), m.Priority("normal"))
	}
	// Restore when the interactive job finishes.
	if err := m.Reclass("jb", BatchClass, 0); err != nil {
		t.Fatal(err)
	}
	if m.Usage("victim") != m.Usage("normal") {
		t.Fatal("usage differs after restore")
	}
}

func TestDuplicateAllocationRejected(t *testing.T) {
	m := mgr()
	m.SetTotal(10)
	m.Allocate("j", "u", 1, BatchClass, 0)
	if err := m.Allocate("j", "u", 1, BatchClass, 0); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
}

func TestReclassUnknownAllocation(t *testing.T) {
	m := mgr()
	if err := m.Reclass("ghost", BatchClass, 0); err == nil {
		t.Fatal("reclass of unknown allocation accepted")
	}
}

func TestUnknownUserHasInitialPriority(t *testing.T) {
	m := mgr()
	if m.Priority("nobody") != 0 {
		t.Fatalf("priority = %v", m.Priority("nobody"))
	}
}

func TestBetterAndRanking(t *testing.T) {
	m := mgr()
	m.SetTotal(10)
	m.Allocate("j1", "heavy", 8, BatchClass, 0)
	m.Allocate("j2", "light", 1, BatchClass, 0)
	m.Tick()
	if m.Priority("light") >= m.Priority("heavy") {
		t.Fatal("light user not better than heavy user")
	}
}

func TestRecoveredUsersForgotten(t *testing.T) {
	m := New(simclock.NewSim(time.Time{}), Config{HalfLife: time.Millisecond, UpdateInterval: time.Hour})
	m.SetTotal(1)
	m.Allocate("j", "u", 1, BatchClass, 0)
	m.Tick()
	m.Release("j")
	// β is astronomically small (δt >> h), so one tick fully restores.
	m.Tick()
	if got := len(m.users); got != 0 {
		t.Fatalf("%d users still tracked after full recovery", got)
	}
}

func TestTickerOnSimClock(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := New(sim, Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
	m.SetTotal(10)
	m.Allocate("j", "u", 10, BatchClass, 0)
	m.Start()
	sim.RunFor(10 * time.Minute)
	p10 := m.Priority("u")
	if p10 <= 0 {
		t.Fatalf("priority after 10 ticks = %v", p10)
	}
	// Closed form: P_n = (1-β^n)·usage for constant usage from P_0=0.
	want := (1 - math.Pow(m.beta, 10)) * 1.0
	if math.Abs(p10-want) > 1e-9 {
		t.Fatalf("P after 10 ticks = %v, want %v", p10, want)
	}
}

func TestStartIdempotent(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	m := New(sim, Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
	m.SetTotal(1)
	m.Allocate("j", "u", 1, BatchClass, 0)
	m.Start()
	m.Start() // must not double-tick
	sim.RunFor(time.Minute + time.Second)
	want := (1 - m.beta) * 1.0
	if got := m.Priority("u"); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P after 1 tick = %v, want %v (double ticker?)", got, want)
	}
}

// Property: under constant usage starting from P=0, the priority is
// non-negative, never exceeds the usage term (it converges to it from
// below), and is monotone non-decreasing across ticks.
func TestPriorityBoundsProperty(t *testing.T) {
	f := func(cpus []uint8, ticks uint8) bool {
		m := mgr()
		m.SetTotal(256 * 4)
		for i, c := range cpus {
			if err := m.Allocate(string(rune('a'+i%26))+string(rune('0'+i/26)), "u", int(c), InteractiveClass, 0); err != nil {
				return false
			}
		}
		usage := m.Usage("u")
		prev := 0.0
		for i := 0; i < int(ticks%50); i++ {
			m.Tick()
			p := m.Priority("u")
			if p < prev-1e-12 || p < 0 || p > usage+1e-9 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
