package vmslot

import (
	"math"
	"time"

	"crossbroker/internal/simclock"
)

// burst is one fused stretch of contended scheduling. At dispatch time
// the machine pre-computes the entire slice-by-slice schedule up to
// the next run completion (fin) and sleeps in a single event instead
// of dispatching every quantum through the event heap. The pristine
// start state (init) is kept so that Start, SetTickets, Close and
// Used can interrupt the burst by replaying the identical schedule up
// to the current instant.
//
// All duration bookkeeping (used, remaining, busy, elapsed) is exact
// integer arithmetic, so completion times match slice-at-a-time
// dispatch. The float pass values only decide intra-round ordering;
// fast-forwarded rounds apply their increments with one multiply,
// which can differ from repeated addition in the last ulp — an
// ordering perturbation of at most one quantum, well inside the
// scheduler's behavioural tolerances, and fully deterministic.
type burst struct {
	timer  simclock.Timer
	start  time.Time
	cost   time.Duration // virtual time until the winning completion
	winner int           // index into fin.runs of the completing run
	init   burstState    // state at burst start, for interrupt replay
	fin    burstState    // state at the winning completion

	// buf backs init.runs and fin.runs for a runq of up to inlineRuns
	// runs, an interactive VM's and its batch VM's, so the usual burst
	// is one allocation.
	buf [2 * inlineRuns]burstRun
}

// inlineRuns is the longest runq whose burst states live in burst.buf.
const inlineRuns = 2

// burstState is a scratch copy of every scheduler variable the
// dispatch loop touches, so the schedule can be computed (and
// re-computed on interrupt) without disturbing the live machine. The
// CPU is busy for the whole of a burst, so elapsed is also the busy
// time it adds.
type burstState struct {
	ticketed bool // execution class: ticketed runs, else background
	runs     []burstRun
	vtime    float64
	bgvtime  float64
	elapsed  time.Duration
}

// burstRun mirrors one runq entry. Only the first run of each slot in
// the executing class is active; later runs of the same slot (and the
// background class while ticketed work exists) cannot be picked before
// the burst ends, exactly as in pick.
type burstRun struct {
	r         *run
	tickets   int
	active    bool
	slice     time.Duration // full per-turn slice
	delta     float64       // pass increment of one full slice
	pass      float64       // scratch class pass of the slot
	used      time.Duration // scratch slot.used
	remaining time.Duration
}

// newBurstState snapshots the live scheduler state for the current
// runq into runs, an empty slice with room for the runq. The runq is
// frozen for the burst's lifetime: every mutation path interrupts the
// burst first.
func (m *Machine) newBurstState(runs []burstRun) burstState {
	b := burstState{
		vtime:   m.vtime,
		bgvtime: m.bgvtime,
	}
	for _, r := range m.runq {
		if r.slot.tickets > 0 {
			b.ticketed = true
			break
		}
	}
	b.runs = runs[:len(m.runq)]
	for i, r := range m.runq {
		br := burstRun{r: r, tickets: r.slot.tickets, remaining: r.remaining}
		first := true
		for j := 0; j < i; j++ {
			if m.runq[j].slot == r.slot {
				first = false
				break
			}
		}
		if first && (r.slot.tickets > 0) == b.ticketed {
			br.active = true
			br.slice = m.sliceFor(br.tickets)
			if b.ticketed {
				br.delta = br.slice.Seconds() / float64(br.tickets)
				br.pass = r.slot.pass
			} else {
				br.delta = br.slice.Seconds()
				br.pass = r.slot.bgpass
			}
			br.used = r.slot.used
		}
		b.runs[i] = br
	}
	return b
}

// pickIdx is pick over the scratch state: minimum pass among active
// runs, scan order breaking ties.
func (b *burstState) pickIdx() int {
	best := -1
	for i := range b.runs {
		if !b.runs[i].active {
			continue
		}
		if best == -1 || b.runs[i].pass < b.runs[best].pass {
			best = i
		}
	}
	return best
}

// commit charges one slice to br, mirroring complete for a full,
// uninterrupted slice.
func (b *burstState) commit(br *burstRun, slice time.Duration) {
	br.used += slice
	if b.ticketed {
		br.pass += slice.Seconds() / float64(br.tickets)
		if br.pass > b.vtime {
			b.vtime = br.pass
		}
	} else {
		br.pass += slice.Seconds()
		if br.pass > b.bgvtime {
			b.bgvtime = br.pass
		}
	}
	br.remaining -= slice
	b.elapsed += slice
}

// advance executes the dispatch loop on the scratch state until a run
// completes, returning its index; with limit >= 0 it stops when the
// next slice would end past limit and returns (-1, slice descriptor)
// for the in-flight slice instead. Slices ending exactly at limit are
// committed.
func (b *burstState) advance(limit time.Duration) (winner, idx int, slice time.Duration) {
	for {
		i := b.pickIdx()
		br := &b.runs[i]
		sl := br.slice
		if br.remaining < sl {
			sl = br.remaining
		}
		if limit >= 0 && b.elapsed+sl > limit {
			return -1, i, sl
		}
		b.commit(br, sl)
		if br.remaining <= 0 {
			return i, -1, 0
		}
		b.jump(limit)
	}
}

// jump fast-forwards whole rotation rounds. Once every active run's
// pass lies within one turn increment of the others, stride scheduling
// degenerates to a fixed rotation in which each run executes exactly
// one full slice per round, so rounds can be applied in bulk. The jump
// stops one slice short of the earliest completion (and inside limit),
// leaving the finish to the exact per-slice loop above.
func (b *burstState) jump(limit time.Duration) {
	var (
		roundCost time.Duration
		minp      = math.Inf(1)
		maxp      = math.Inf(-1)
		minDelta  = math.Inf(1)
		rounds    = int64(math.MaxInt64)
	)
	for i := range b.runs {
		br := &b.runs[i]
		if !br.active {
			continue
		}
		if br.pass < minp {
			minp = br.pass
		}
		if br.pass > maxp {
			maxp = br.pass
		}
		if br.delta < minDelta {
			minDelta = br.delta
		}
		if n := int64(br.remaining-1) / int64(br.slice); n < rounds {
			rounds = n
		}
		roundCost += br.slice
	}
	if maxp-minp > minDelta {
		return // still converging (catch-up); stay slice-exact
	}
	if limit >= 0 {
		if fit := int64(limit-b.elapsed) / int64(roundCost); fit < rounds {
			rounds = fit
		}
	}
	if rounds <= 0 {
		return
	}
	for i := range b.runs {
		br := &b.runs[i]
		if !br.active {
			continue
		}
		br.used += time.Duration(rounds) * br.slice
		br.remaining -= time.Duration(rounds) * br.slice
		br.pass += float64(rounds) * br.delta
		if b.ticketed {
			if br.pass > b.vtime {
				b.vtime = br.pass
			}
		} else if br.pass > b.bgvtime {
			b.bgvtime = br.pass
		}
	}
	b.elapsed += time.Duration(rounds) * roundCost
}

// fuse starts a fused burst for a contended runq: compute the schedule
// up to the next completion and sleep in one event.
func (m *Machine) fuse() bool {
	b := &burst{start: m.sim.Now()}
	initRuns, finRuns := b.buf[:0:inlineRuns], b.buf[inlineRuns:inlineRuns]
	if n := len(m.runq); n > inlineRuns {
		initRuns, finRuns = make([]burstRun, 0, n), make([]burstRun, 0, n)
	}
	b.init = m.newBurstState(initRuns)
	b.fin = b.init
	b.fin.runs = append(finRuns, b.init.runs...)
	b.winner, _, _ = b.fin.advance(-1)
	b.cost = b.fin.elapsed
	m.current = nil
	m.curEvent = simclock.Timer{}
	m.burst = b
	b.timer = m.sim.AfterFunc(b.cost, m.burstEnd)
	return true
}

// apply writes a scratch state back to the live machine.
func (m *Machine) apply(bs *burstState) {
	for i := range bs.runs {
		br := &bs.runs[i]
		br.r.remaining = br.remaining
		if !br.active {
			continue
		}
		s := br.r.slot
		s.used = br.used
		if bs.ticketed {
			s.pass = br.pass
		} else {
			s.bgpass = br.pass
		}
	}
	m.vtime = bs.vtime
	m.bgvtime = bs.bgvtime
	m.busyFor += bs.elapsed // untouched since the burst started
}

// finishrun mirrors the completion tail of complete: remove the run,
// fire its trigger (whose callbacks may re-enter the machine exactly
// as they would from a slice completion), then redispatch.
func (m *Machine) finishRun(r *run) {
	m.current = r
	for i, rr := range m.runq {
		if rr == r {
			m.runq = append(m.runq[:i], m.runq[i+1:]...)
			break
		}
	}
	r.done.Fire()
	m.dispatch()
}

// finishBurst runs at the active burst's end: apply the precomputed
// final state and complete the winning run. A superseded burst never
// gets here: interrupt stops its timer before dropping it.
func (m *Machine) finishBurst() {
	b := m.burst
	m.burst = nil
	m.apply(&b.fin)
	m.finishRun(b.fin.runs[b.winner].r)
}

// interrupt materializes an active burst at the current instant:
// replay the schedule up to now, then resume slice-at-a-time with the
// straddling slice as the current one. Afterwards the machine looks
// exactly as if the burst had been dispatched slice by slice, so
// callers may mutate runq, tickets or slots freely.
func (m *Machine) interrupt() {
	b := m.burst
	if b == nil {
		return
	}
	b.timer.Stop()
	m.burst = nil
	elapsed := m.sim.Since(b.start)
	bs := b.init
	w, idx, slice := bs.advance(elapsed)
	m.apply(&bs)
	if w >= 0 {
		// The interrupt landed exactly on the winning completion.
		m.finishRun(bs.runs[w].r)
		return
	}
	r := bs.runs[idx].r
	m.current = r
	m.curStart = b.start.Add(bs.elapsed)
	m.curSlice = slice
	m.curEvent = m.sim.AfterFunc(bs.elapsed+slice-elapsed, m.sliceEnd)
}
