// Package fairshare implements the accounting and dynamic user
// priority scheme of Section 5.1:
//
//	P(u,t) = β · P(u, t-δt) + (1-β) · af · r(u,t)        (1)
//
// where r(u,t) is the normalized amount of resources user u holds at
// time t, af is the application factor, and β = 0.5^(δt/h) with h the
// half-life period. Higher P means *worse* priority. Priorities are
// updated every δt for users whose priority differs from the initial
// value, so an idle user's credits are gradually restored with
// half-life h.
//
// Application factors follow the paper's job classes:
//
//   - Batch jobs: af = 1.
//   - Interactive jobs worsen priority faster than batch:
//     af = 2 − PerformanceLoss/100 (in [1, 2]: the more CPU the
//     interactive job leaves to a co-located batch job, the less it
//     worsens its owner's priority).
//   - A batch job forced to yield its machine to an interactive
//     application is charged af = PerformanceLoss/100 of the
//     interactive application — much less than a normal batch job,
//     compensating its owner for the slowdown.
//
// (The paper's text for the interactive case reads "af = 2 ·
// PerformanceLoss/100", which contradicts its own prose — it would
// make a PerformanceLoss=0 interactive job free and all interactive
// jobs with PL<50 cheaper than batch. The surrounding text requires
// interactive ≥ batch ≥ yielded batch, which the 2 − PL/100 reading
// satisfies; see DESIGN.md.)
package fairshare

import (
	"fmt"
	"math"
	"time"

	"crossbroker/internal/simclock"
)

// Class is the accounting class of an allocation.
type Class int

// Allocation classes.
const (
	// BatchClass is a normal batch allocation (af = 1).
	BatchClass Class = iota
	// InteractiveClass is an interactive allocation
	// (af = 2 - PL/100).
	InteractiveClass
	// YieldedBatchClass is a batch allocation sharing its machine with
	// an interactive job (af = PL/100 of that interactive job).
	YieldedBatchClass
)

// String names the class.
func (c Class) String() string {
	switch c {
	case BatchClass:
		return "batch"
	case InteractiveClass:
		return "interactive"
	case YieldedBatchClass:
		return "yielded-batch"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// appFactor returns af for a class given the relevant PerformanceLoss
// percentage (the interactive job's attribute).
func appFactor(c Class, performanceLoss int) float64 {
	pl := float64(performanceLoss) / 100
	switch c {
	case BatchClass:
		return 1
	case InteractiveClass:
		return 2 - pl
	case YieldedBatchClass:
		return pl
	}
	return 1
}

// Config parametrizes the priority scheme.
type Config struct {
	// HalfLife is h: the period over which an idle user's priority
	// value halves (credits restore).
	HalfLife time.Duration
	// UpdateInterval is δt between priority updates.
	UpdateInterval time.Duration
}

// initialPriority is the value new users start at: the best priority.
const initialPriority = 0.0

func (c *Config) setDefaults() {
	if c.HalfLife <= 0 {
		c.HalfLife = time.Hour
	}
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = time.Minute
	}
}

// Manager tracks per-user priorities and resource allocations. It
// belongs to one Sim: every call runs on the goroutine driving it.
type Manager struct {
	cfg     Config
	sim     *simclock.Sim
	beta    float64
	started bool

	total  int // total grid CPUs, for normalization
	users  map[string]*user
	allocs map[string]*alloc
}

type user struct {
	name     string
	priority float64
}

type alloc struct {
	user  string
	cpus  int
	class Class
	pl    int
}

// New creates a manager on the given simulation clock.
func New(sim *simclock.Sim, cfg Config) *Manager {
	cfg.setDefaults()
	m := &Manager{
		cfg:    cfg,
		sim:    sim,
		beta:   math.Pow(0.5, cfg.UpdateInterval.Seconds()/cfg.HalfLife.Seconds()),
		users:  make(map[string]*user),
		allocs: make(map[string]*alloc),
	}
	return m
}

// SetTotal sets the total grid CPU count used to normalize r(u,t).
func (m *Manager) SetTotal(cpus int) { m.total = cpus }

// Allocate records that jobID holds cpus CPUs for userName under the
// given class. pl is the PerformanceLoss attribute of the interactive
// job involved (the job's own for InteractiveClass, the co-located
// interactive job's for YieldedBatchClass; ignored for BatchClass).
func (m *Manager) Allocate(jobID, userName string, cpus int, class Class, pl int) error {
	if _, dup := m.allocs[jobID]; dup {
		return fmt.Errorf("fairshare: allocation %q already exists", jobID)
	}
	m.allocs[jobID] = &alloc{user: userName, cpus: cpus, class: class, pl: pl}
	if _, ok := m.users[userName]; !ok {
		m.users[userName] = &user{name: userName, priority: initialPriority}
	}
	return nil
}

// Reclass changes an existing allocation's class, e.g. a batch job
// becoming YieldedBatchClass when an interactive job with the given
// PerformanceLoss lands on its machine, and back when it leaves.
func (m *Manager) Reclass(jobID string, class Class, pl int) error {
	a, ok := m.allocs[jobID]
	if !ok {
		return fmt.Errorf("fairshare: unknown allocation %q", jobID)
	}
	a.class = class
	a.pl = pl
	return nil
}

// Release removes an allocation (job finished or was killed).
func (m *Manager) Release(jobID string) { delete(m.allocs, jobID) }

// Usage returns the user's current af-weighted normalized usage:
// af·r(u,t) summed over the user's allocations.
func (m *Manager) Usage(name string) float64 {
	if m.total <= 0 {
		return 0
	}
	var sum float64
	for _, a := range m.allocs {
		if a.user != name {
			continue
		}
		sum += appFactor(a.class, a.pl) * float64(a.cpus) / float64(m.total)
	}
	return sum
}

// Priority returns P(u) — higher is worse. Unknown users have the
// initial (best) priority.
func (m *Manager) Priority(name string) float64 {
	if u, ok := m.users[name]; ok {
		return u.priority
	}
	return initialPriority
}

// Tick applies equation (1) once to every tracked user, and forgets
// users that have fully recovered their initial priority with no
// allocations.
func (m *Manager) Tick() {
	const eps = 1e-12
	for name, u := range m.users {
		usage := m.Usage(name)
		u.priority = m.beta*u.priority + (1-m.beta)*usage
		if usage == 0 && math.Abs(u.priority-initialPriority) < eps {
			delete(m.users, name)
		}
	}
}

// Start arranges Tick to run every UpdateInterval on the manager's
// clock for as long as the simulation runs. A second call changes
// nothing.
func (m *Manager) Start() {
	if !m.started {
		m.started = true
		m.arm()
	}
}

func (m *Manager) arm() {
	m.sim.AfterFunc(m.cfg.UpdateInterval, func() {
		m.Tick()
		m.arm()
	})
}
