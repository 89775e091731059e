package workload

import (
	"math"
	"testing"
	"time"
)

func TestPoissonMeanRate(t *testing.T) {
	p, err := NewPoisson(60, 1) // one per minute
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		d := p.Next()
		if d < 0 {
			t.Fatalf("negative inter-arrival %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 50*time.Second || mean > 70*time.Second {
		t.Fatalf("mean inter-arrival %v, want ~1m", mean)
	}
}

func mustPoisson(t *testing.T, perHour float64, seed int64) *Poisson {
	t.Helper()
	p, err := NewPoisson(perHour, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	a, b := mustPoisson(t, 10, 7), mustPoisson(t, 10, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := mustPoisson(t, 10, 8)
	same := true
	a2 := mustPoisson(t, 10, 7)
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorBoundaries pins the zero/negative boundary of every
// generator constructor: NewPoisson now rejects non-positive rates
// (the old clamp hid misconfiguration), while the others keep their
// documented normalizations.
func TestGeneratorBoundaries(t *testing.T) {
	t.Run("poisson rejects bad rates", func(t *testing.T) {
		for _, rate := range []float64{0, -1, -1e9, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if p, err := NewPoisson(rate, 1); err == nil {
				t.Fatalf("NewPoisson(%v) = %v, want error", rate, p)
			}
		}
		if _, err := NewPoisson(0.001, 1); err != nil {
			t.Fatalf("tiny positive rate rejected: %v", err)
		}
	})
	t.Run("lognormal clamps non-positive parameters", func(t *testing.T) {
		for _, c := range []struct {
			median time.Duration
			sigma  float64
		}{{0, 1}, {-time.Hour, 1}, {time.Minute, 0}, {time.Minute, -2}, {0, 0}} {
			l := newLogNormal(c.median, c.sigma, 1)
			for i := 0; i < 100; i++ {
				if d := l.sample(); d < time.Millisecond {
					t.Fatalf("newLogNormal(%v, %v) drew %v", c.median, c.sigma, d)
				}
			}
		}
	})
}

func TestLogNormalMedianAndCap(t *testing.T) {
	l := newLogNormal(10*time.Minute, 1.0, 3)
	var above, total int
	for i := 0; i < 4000; i++ {
		d := l.sample()
		if d <= 0 {
			t.Fatalf("non-positive sample %v", d)
		}
		if d > 500*time.Minute {
			t.Fatalf("sample %v beyond 50x median cap", d)
		}
		if d > 10*time.Minute {
			above++
		}
		total++
	}
	frac := float64(above) / float64(total)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("%.2f of samples above the median, want ~0.5", frac)
	}
}

func TestMixComposition(t *testing.T) {
	m := NewMix(11)
	interactive, batch := 0, 0
	users := map[string]bool{}
	for i := 0; i < 3000; i++ {
		j := m.Next()
		users[j.User] = true
		switch j.Kind {
		case InteractiveJob:
			interactive++
			found := false
			for _, pl := range mixPerformanceLosses {
				if j.PerformanceLoss == pl {
					found = true
				}
			}
			if !found {
				t.Fatalf("interactive PL %d not from configured set", j.PerformanceLoss)
			}
			if j.CPU > 110*time.Minute {
				t.Fatalf("interactive CPU %v beyond cap", j.CPU)
			}
		case BatchJob:
			batch++
			if j.PerformanceLoss != 0 {
				t.Fatal("batch job with PerformanceLoss")
			}
		}
		if j.CPU <= 0 {
			t.Fatalf("job with CPU %v", j.CPU)
		}
	}
	frac := float64(interactive) / 3000
	if math.Abs(frac-0.3) > 0.04 {
		t.Fatalf("interactive fraction %.3f, want ~0.30", frac)
	}
	if len(users) != 16 {
		t.Fatalf("%d distinct users, want 16", len(users))
	}
}
