// Package vmslot implements the paper's lightweight virtual machines
// (Section 5.2): a worker node's CPU split into execution slots — one
// for batch work, one for interactive work — multiplexed by a stride
// scheduler whose ticket ratio realizes the Performance Loss attribute.
//
// The paper controls CPU division with Unix priorities under the
// glide-in agent; portable Go cannot set per-process priorities, so
// the node's CPU is simulated in virtual time: a Machine dispatches
// quantum-sized slices to its slots in proportion to their tickets.
// The interactive slot holds 100 tickets and the co-located batch slot
// PerformanceLoss tickets, so for every second of interactive CPU the
// batch job receives PerformanceLoss/100 seconds — a CPU-burst
// slow-down of (1 + PL/100), matching the paper's measurement that the
// observed loss tracks the attribute value (Figure 8).
//
// Two second-order behaviours of priority-based sharing are preserved:
//
//   - Work conservation: a zero-ticket (pure background) slot runs
//     whenever no ticketed slot is runnable, so a batch job still makes
//     progress during the interactive job's I/O phases.
//   - Bounded catch-up: a slot that was blocked keeps its old pass
//     value (capped by MaxCatchup), so a batch job that ran during the
//     interactive job's I/O phase has consumed part of its share and
//     the interactive burst completes slightly faster than the
//     proportional ideal — the reason the paper measures 8% for PL=10
//     and 22% for PL=25 rather than the nominal values.
//
// Dispatching every quantum through the event heap would cost one
// simulation event per ~10ms of contended virtual CPU — hundreds of
// events per second of shared work, which dominates large replays.
// Contended stretches are therefore fused (see burst in fuse.go): the
// Machine pre-computes the slice-by-slice schedule up to the next run
// completion and sleeps in a single event, replaying the same schedule
// on any mid-burst mutation or query so observable behaviour matches
// slice-at-a-time dispatch.
package vmslot

import (
	"fmt"
	"time"

	"crossbroker/internal/simclock"
)

// fullShareTickets is the reference ticket count: a slot holding it
// receives one full base quantum per turn; other ticket counts scale
// the slice proportionally.
const fullShareTickets = 100

// Machine is one worker node's CPU, multiplexed among slots by stride
// scheduling in virtual time. All methods must be called from the
// machine's simulation (events of the same Sim); the simulation's
// sequential execution provides mutual exclusion.
type Machine struct {
	sim *simclock.Sim
	// Quantum is the scheduling slice. Shorter quanta track the ideal
	// fluid shares more closely at the cost of more dispatches.
	quantum time.Duration
	// maxCatchup bounds how much exclusive CPU a newly woken slot may
	// claim to repay its deficit.
	maxCatchup time.Duration

	slots   []*Slot
	runq    []*run
	current *run
	vtime   float64 // virtual time: max pass dispatched so far (ticketed)
	bgvtime float64 // same for zero-ticket (background) slots
	busyFor time.Duration

	// Current slice bookkeeping, for the uncontended fast path: a lone
	// run is dispatched as one big slice (instead of millions of
	// quantum events) and preempted with exact partial accounting when
	// competition arrives. curEvent is zero when no slice is in flight.
	curEvent simclock.SimTimer
	curStart time.Time
	curSlice time.Duration

	// burst is the fused contended-dispatch state, nil outside bursts.
	burst *burst

	// sliceEnd and burstEnd are the timer callbacks of the current slice
	// and the current burst, bound once per machine: the slice in flight
	// is always (current, curSlice), and a burst's timer is stopped
	// whenever the burst is superseded.
	sliceEnd, burstEnd func()
}

// Option configures a Machine.
type Option func(*Machine)

// WithMaxCatchup bounds the exclusive catch-up work of a woken slot.
func WithMaxCatchup(d time.Duration) Option { return func(m *Machine) { m.maxCatchup = d } }

// WithQuantum sets the scheduling quantum.
func WithQuantum(d time.Duration) Option { return func(m *Machine) { m.quantum = d } }

// NewMachine creates a CPU with the given scheduling quantum on sim.
func NewMachine(sim *simclock.Sim, opts ...Option) *Machine {
	m := &Machine{
		sim:        sim,
		quantum:    10 * time.Millisecond,
		maxCatchup: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(m)
	}
	if m.quantum <= 0 {
		panic("vmslot: quantum must be positive")
	}
	m.sliceEnd = func() { m.complete(m.current, m.curSlice) }
	m.burstEnd = m.finishBurst
	return m
}

// Slot is one execution slot (virtual machine) on a Machine. The
// paper's agent creates two: a batch-vm and an interactive-vm.
type Slot struct {
	m       *Machine
	name    string
	tickets int
	pass    float64 // ticketed pass, in virtual-time units
	bgpass  float64 // background pass, in CPU seconds
	used    time.Duration
	closed  bool
}

// run is one outstanding Start request. Its completion trigger lives
// inside it: Start costs one allocation.
type run struct {
	slot      *Slot
	remaining time.Duration
	done      simclock.Trigger
}

// NewSlot creates a slot with the given tickets. Zero tickets marks a
// background slot that runs only when no ticketed slot is runnable.
func (m *Machine) NewSlot(name string, tickets int) *Slot {
	if tickets < 0 {
		panic("vmslot: negative tickets")
	}
	s := &Slot{m: m, name: name, tickets: tickets, pass: m.vtime, bgpass: m.bgvtime}
	m.slots = append(m.slots, s)
	return s
}

// Name returns the slot name.
func (s *Slot) Name() string { return s.name }

// Tickets returns the slot's current ticket count.
func (s *Slot) Tickets() int { return s.tickets }

// SetTickets changes the slot's share. Taking a slot to or from zero
// moves it between the ticketed and background classes; its pass in
// the new class resumes from the class virtual time.
func (s *Slot) SetTickets(n int) {
	if n < 0 {
		panic("vmslot: negative tickets")
	}
	s.m.interrupt()
	if (s.tickets == 0) != (n == 0) {
		s.pass = s.m.vtime
		s.bgpass = s.m.bgvtime
	}
	s.tickets = n
}

// Used returns the total CPU time consumed by the slot.
func (s *Slot) Used() time.Duration {
	s.m.interrupt()
	return s.used
}

// Close removes the slot from its machine. Pending runs are abandoned
// (their triggers never fire); callers stop their own work first.
func (s *Slot) Close() {
	s.m.interrupt()
	s.closed = true
	m := s.m
	for i, sl := range m.slots {
		if sl == s {
			m.slots = append(m.slots[:i], m.slots[i+1:]...)
			break
		}
	}
	q := m.runq[:0]
	for _, r := range m.runq {
		if r.slot != s {
			q = append(q, r)
		}
	}
	m.runq = q
}

// Start begins work seconds of CPU on the slot and returns a trigger
// that fires on completion. The elapsed virtual time depends on
// contention from other slots.
func (s *Slot) Start(work time.Duration) *simclock.Trigger {
	if work <= 0 {
		t := s.m.sim.NewTrigger()
		t.Fire()
		return t
	}
	if s.closed {
		panic(fmt.Sprintf("vmslot: Start on closed slot %q", s.name))
	}
	r := &run{slot: s, remaining: work}
	s.m.sim.InitTrigger(&r.done)
	// Materialize any fused burst and account any in-flight long slice
	// before computing the newcomer's pass floor, so the class virtual
	// time reflects all consumed CPU.
	s.m.interrupt()
	s.m.preemptLongSlice()
	s.reenter()
	s.m.runq = append(s.m.runq, r)
	// The preempt above may itself have redispatched and fused the
	// pre-existing runq; materialize that burst (zero elapsed) so the
	// newcomer is not left out of the schedule until it ends.
	s.m.interrupt()
	if s.m.current == nil {
		s.m.dispatch()
	} else {
		// The redispatched lone run may hold a fresh long slice; yield
		// it immediately (zero elapsed) so quantum sharing starts now.
		s.m.preemptLongSlice()
	}
	return &r.done
}

// reenter applies the bounded catch-up rule when a slot becomes
// runnable: the slot keeps its historical pass, but may not lag the
// class virtual time by more than MaxCatchup of exclusive work.
func (s *Slot) reenter() {
	m := s.m
	if s.tickets > 0 {
		floor := m.vtime - m.maxCatchup.Seconds()/float64(s.tickets)
		if s.pass < floor {
			s.pass = floor
		}
	} else {
		floor := m.bgvtime - m.maxCatchup.Seconds()
		if s.bgpass < floor {
			s.bgpass = floor
		}
	}
}

// sliceFor returns the per-turn slice of a slot holding t tickets.
// Ticket-weighted slices keep shares proportional even when a work
// phase spans only a few quanta (the I/O operations of Figure 8):
// a slot holding t tickets runs t% of the base quantum per turn.
// Equal full-share slots degrade to plain quanta.
func (m *Machine) sliceFor(t int) time.Duration {
	slice := m.quantum
	if t > 0 && t != fullShareTickets {
		slice = time.Duration(float64(m.quantum) * float64(t) / fullShareTickets)
		if slice < 10*time.Microsecond {
			slice = 10 * time.Microsecond
		}
	}
	return slice
}

// pick selects the next run: minimum pass among ticketed runnable
// slots; if none, minimum background pass among zero-ticket slots.
func (m *Machine) pick() *run {
	var best *run
	for _, r := range m.runq {
		if r.slot.tickets == 0 {
			continue
		}
		if best == nil || r.slot.pass < best.slot.pass {
			best = r
		}
	}
	if best != nil {
		return best
	}
	for _, r := range m.runq {
		if best == nil || r.slot.bgpass < best.slot.bgpass {
			best = r
		}
	}
	return best
}

func (m *Machine) dispatch() {
	if len(m.runq) >= 2 && m.fuse() {
		return
	}
	r := m.pick()
	if r == nil {
		m.current = nil
		return
	}
	m.current = r
	slice := m.sliceFor(r.slot.tickets)
	if len(m.runq) == 1 {
		// Uncontended: run everything in one slice; a future Start
		// preempts it with exact accounting.
		slice = r.remaining
	}
	if r.remaining < slice {
		slice = r.remaining
	}
	m.curStart = m.sim.Now()
	m.curSlice = slice
	m.curEvent = m.sim.AfterFuncTimer(slice, m.sliceEnd)
}

// preemptLongSlice interrupts a running slice longer than the quantum,
// charging the slot for exactly the time it consumed, then redispatches
// under normal quantum sharing.
func (m *Machine) preemptLongSlice() {
	r := m.current
	if r == nil || m.curSlice <= m.quantum || m.curEvent == (simclock.SimTimer{}) {
		return
	}
	if !m.curEvent.Stop() {
		return // completion is already firing
	}
	used := m.sim.Since(m.curStart)
	if used > m.curSlice {
		used = m.curSlice
	}
	m.complete(r, used)
}

func (m *Machine) complete(r *run, used time.Duration) {
	s := r.slot
	s.used += used
	m.busyFor += used
	m.curEvent = simclock.SimTimer{}
	if s.tickets > 0 {
		s.pass += used.Seconds() / float64(s.tickets)
		if s.pass > m.vtime {
			m.vtime = s.pass
		}
	} else {
		s.bgpass += used.Seconds()
		if s.bgpass > m.bgvtime {
			m.bgvtime = s.bgpass
		}
	}
	r.remaining -= used
	if r.remaining <= 0 {
		for i, rr := range m.runq {
			if rr == r {
				m.runq = append(m.runq[:i], m.runq[i+1:]...)
				break
			}
		}
		r.done.Fire()
	}
	m.dispatch()
}

// Busy returns the cumulative time the CPU spent executing slices,
// including the in-flight portion of the current slice.
func (m *Machine) Busy() time.Duration {
	if b := m.burst; b != nil {
		// A contended burst keeps the CPU busy for its whole span, so
		// busy time interpolates linearly without materializing it.
		elapsed := m.sim.Since(b.start)
		if elapsed > b.cost {
			elapsed = b.cost
		}
		return m.busyFor + elapsed
	}
	busy := m.busyFor
	if m.current != nil && m.curEvent != (simclock.SimTimer{}) {
		elapsed := m.sim.Since(m.curStart)
		if elapsed > m.curSlice {
			elapsed = m.curSlice
		}
		if elapsed > 0 {
			busy += elapsed
		}
	}
	return busy
}

// Runnable reports the number of outstanding runs.
func (m *Machine) Runnable() int { return len(m.runq) }
