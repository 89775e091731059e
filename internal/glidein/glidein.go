// Package glidein implements the paper's job agents (Section 5.2): a
// Condor Glide-In style process that is submitted through the normal
// batch path, gains control of a worker node independently of the
// local-site job manager, and splits it into lightweight virtual
// machines — a batch-vm plus one or more interactive-vms.
//
// The batch payload runs on the batch-vm at full share. When the
// broker places an interactive job on an interactive-vm, the agent
// lowers the batch-vm's CPU share according to the interactive job's
// PerformanceLoss attribute (interactive 100 tickets : batch PL
// tickets, see vmslot) and restores the original priority when the
// interactive job finishes. After the batch payload completes — and
// once no interactive job is running — the agent leaves the machine.
//
// The paper's deployed configuration uses exactly two VMs per node;
// its Section 5.2 notes that "our multi-programming system could allow
// a larger degree of multi-programming, creating dynamically more than
// two virtual machines", which Options.Degree realizes: up to Degree
// interactive VMs are created on demand, each holding a full
// interactive share, and destroyed when their job leaves.
//
// Because the broker talks to agents directly (their state is "kept
// locally by CrossBroker"), interactive jobs placed on an agent skip
// resource discovery, selection, the gatekeeper and the local queue —
// the source of the shared-mode row's speedup in Table I.
package glidein

import (
	"errors"
	"fmt"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
)

// Agent state errors.
var (
	ErrBusy     = errors.New("glidein: no interactive VM available")
	ErrReleased = errors.New("glidein: agent has left the machine")
)

// interactiveTickets is the per-interactive-vm share; the batch-vm
// gets the interactive jobs' PerformanceLoss value as tickets, so the
// batch job receives PL/100 CPU seconds per interactive CPU second.
const interactiveTickets = 100

// Options tune an agent.
type Options struct {
	// Degree is the maximum number of concurrent interactive VMs
	// (default 1 — the paper's deployed two-VM configuration).
	Degree int
	// Trace records the agent's lifecycle events (nil disables).
	Trace *trace.Tracer
	// TraceJob and TraceAttempt label the launch's gatekeeper
	// submission (its two-phase-commit trace events) with the broker
	// job it serves; empty TraceJob falls back to the LRM handle ID.
	TraceJob     string
	TraceAttempt int
}

// BatchPayload is the user batch job the agent hosts on its batch-vm.
type BatchPayload struct {
	// ID and Owner identify the job for accounting.
	ID, Owner string
	// Work is the payload's CPU demand on the node.
	Work time.Duration
}

// InteractiveContext is passed to an interactive job body.
type InteractiveContext struct {
	// Sim is the simulation clock.
	Sim *simclock.Sim
	// Slot is the interactive virtual machine's CPU slot; CPU bursts
	// go through Slot.Start.
	Slot *vmslot.Slot
	// Node is the worker node hosting the job.
	Node *batch.Node
}

// InteractiveJob is a job the broker places on an interactive VM.
type InteractiveJob struct {
	// ID and Owner identify the job.
	ID, Owner string
	// PerformanceLoss is the percentage of CPU left to the co-located
	// batch job.
	PerformanceLoss int
	// RunCB is the job body, dispatched in a plain event: it waits by
	// scheduling its continuations (AfterFunc, or WaitThen on the
	// trigger of a ctx.Slot burst) and calls done exactly once when
	// the job is finished; nil finishes at once.
	RunCB func(ctx *InteractiveContext, done func())
}

// Agent is a live glide-in on one worker node.
type Agent struct {
	id   string
	sim  *simclock.Sim
	opts Options
	site *site.Site

	node    *batch.Node
	batchVM *vmslot.Slot

	// activePL holds the PerformanceLoss of each running interactive
	// job, keyed by job id; the batch-vm runs at the minimum (most
	// restrictive) of them.
	activePL map[string]int

	batchDone  bool
	batchDoneT *simclock.Trigger
	released   *simclock.Trigger
	relFired   bool // mirrors released.Fired(), avoids the pointer chase on hot paths
	ready      *simclock.Trigger
	hasBatch   bool
	batchID    string

	// OnFree is invoked (in simulation context) whenever an
	// interactive VM becomes available; the broker uses it to update
	// its local agent registry.
	OnFree func(*Agent)
	// OnBusy is the converse: invoked when the last interactive VM is
	// taken. Together with OnFree it lets the broker keep an exact
	// free-agent list, so matchmaking never has to poll FreeSlots.
	OnBusy func(*Agent)
	// OnYield and OnRestore are invoked when the batch payload's CPU
	// share is lowered for / restored after interactive jobs, with
	// the batch job id and the effective PerformanceLoss. The broker
	// hooks fair-share reclassification here.
	OnYield   func(batchID string, pl int)
	OnRestore func(batchID string)
}

// LaunchAsync submits an agent (optionally wrapping a batch payload)
// to the site via the normal gatekeeper path, paying the agent staging
// cost. cont receives the agent and the handle tracking its occupancy
// of the node, or the submission error; the *Agent becomes usable once
// Ready fires.
func LaunchAsync(sim *simclock.Sim, st *site.Site, payload *BatchPayload, priority int, opts Options, cont func(*Agent, *batch.Handle, error)) {
	a, req := newAgent(sim, st, payload, priority, opts)
	st.SubmitAsync(req, site.SubmitOptions{
		WithAgent: true, TraceJob: a.opts.TraceJob, TraceAttempt: a.opts.TraceAttempt},
		func(h *batch.Handle, err error) {
			if err != nil {
				cont(nil, nil, err)
				return
			}
			a.id = fmt.Sprintf("agent-%s-%s", st.Name(), h.ID())
			cont(a, h, nil)
		})
}

// newAgent builds the agent and its LRM request.
func newAgent(sim *simclock.Sim, st *site.Site, payload *BatchPayload, priority int, opts Options) (*Agent, batch.Request) {
	if opts.Degree <= 0 {
		opts.Degree = 1
	}
	a := &Agent{
		id:         fmt.Sprintf("agent-%s", st.Name()),
		sim:        sim,
		opts:       opts,
		site:       st,
		activePL:   make(map[string]int),
		released:   sim.NewTrigger(),
		batchDoneT: sim.NewTrigger(),
		ready:      sim.NewTrigger(),
		hasBatch:   payload != nil,
	}
	a.released.OnFire(func() { a.relFired = true })
	owner := "crossbroker"
	if payload != nil {
		owner = payload.Owner
		a.batchID = payload.ID
	}
	startup := st.Costs().JobStartup
	req := batch.Request{
		ID:       "",
		Owner:    owner,
		Nodes:    1,
		Priority: priority,
		RunCB:    a.body(payload, startup),
	}
	return a, req
}

// body is the agent's life on the worker node.
func (a *Agent) body(payload *BatchPayload, startup time.Duration) func(*batch.ExecCtx, func()) {
	return func(ctx *batch.ExecCtx, fin func()) {
		a.node = ctx.Nodes[0]
		// The agent configures the node: the batch VM exists for the
		// agent's whole life, interactive VMs are created on demand.
		a.batchVM = a.node.CPU.NewSlot("batch-vm", interactiveTickets)
		a.ready.Fire()

		if payload != nil {
			// Start the batch payload on the batch-vm. An eviction
			// ends the wait but must NOT count as completion — the
			// broker resubmits unfinished payloads elsewhere.
			a.sim.Post(func() {
				a.sim.AfterFunc(startup, func() {
					if payload.Work > 0 {
						workDone := a.batchVM.Start(payload.Work)
						w := a.sim.NewTrigger()
						workDone.OnFire(w.Fire)
						ctx.Killed.OnFire(w.Fire)
						w.WaitThen(func() {
							if workDone.Fired() && !ctx.Killed.Fired() {
								a.batchFinished()
							}
						})
						return
					}
					if !ctx.Killed.Fired() {
						a.batchFinished()
					}
				})
			})
		} else {
			a.batchDone = true
		}

		// The agent holds the node until released or killed by the
		// LRM.
		w := a.sim.NewTrigger()
		a.released.OnFire(w.Fire)
		ctx.Killed.OnFire(w.Fire)
		w.WaitThen(func() {
			if ctx.Killed.Fired() && !a.released.Fired() {
				// Evicted: fire released so waiters (and the broker's
				// resubmission logic) observe the death.
				a.opts.Trace.Emit(trace.Event{Kind: trace.AgentDied, Site: a.site.Name(), Detail: a.id + " evicted"})
				a.released.Fire()
			}
			a.batchVM.Close()
			fin()
		})
	}
}

func (a *Agent) batchFinished() {
	a.batchDone = true
	a.batchDoneT.Fire()
	a.maybeLeave()
}

// BatchDone fires when the hosted batch payload has completed (never,
// for agents launched without one — check Released for eviction).
func (a *Agent) BatchDone() *simclock.Trigger { return a.batchDoneT }

// maybeLeave implements "after completion of the batch job, the agent
// leaves the machine" — once no interactive job is running either.
func (a *Agent) maybeLeave() {
	if a.batchDone && len(a.activePL) == 0 && !a.released.Fired() {
		a.released.Fire()
	}
}

// ID returns the agent identifier.
func (a *Agent) ID() string { return a.id }

// Site returns the site whose worker node the agent runs on.
func (a *Agent) Site() *site.Site { return a.site }

// Node returns the worker node the agent controls (nil before start).
func (a *Agent) Node() *batch.Node { return a.node }

// FreeSlots reports how many interactive VMs can take a job right now.
func (a *Agent) FreeSlots() int {
	if a.node == nil || a.relFired {
		return 0
	}
	return a.opts.Degree - len(a.activePL)
}

// Free reports whether at least one interactive VM is available.
func (a *Agent) Free() bool { return a.FreeSlots() > 0 }

// Released fires when the agent has left (or was evicted from) the
// machine.
func (a *Agent) Released() *simclock.Trigger { return a.released }

// Die kills the agent process on its node (fault injection: the
// glide-in segfaults or is OOM-killed). The node job unwinds exactly
// as on a voluntary leave — Released fires, the batch VM closes, the
// LRM sees the job complete — and the broker's heartbeat monitoring
// notices the loss and resubmits any hosted payloads. Idempotent;
// a no-op for agents that already left.
func (a *Agent) Die() {
	if !a.released.Fired() {
		a.opts.Trace.Emit(trace.Event{Kind: trace.AgentDied, Site: a.site.Name(), Detail: a.id + " killed"})
		a.released.Fire()
	}
}

// Ready fires once the agent holds its node and its virtual machines
// exist — the point from which StartInteractive may be called.
func (a *Agent) Ready() *simclock.Trigger { return a.ready }

// applyBatchShare sets the batch-vm's tickets to the most restrictive
// active PerformanceLoss (full share when no interactive job runs) and
// fires the yield/restore hooks on transitions.
func (a *Agent) applyBatchShare(wasIdle bool) {
	if len(a.activePL) == 0 {
		a.batchVM.SetTickets(interactiveTickets)
		if !wasIdle && a.hasBatch && !a.batchDone && a.OnRestore != nil {
			a.OnRestore(a.batchID)
		}
		return
	}
	min := 101
	for _, pl := range a.activePL {
		if pl < min {
			min = pl
		}
	}
	a.batchVM.SetTickets(min)
	if a.hasBatch && !a.batchDone && a.OnYield != nil {
		a.OnYield(a.batchID, min)
	}
}

// StartInteractive places job on a fresh interactive VM: the batch
// VM's share drops to the most restrictive active PerformanceLoss for
// the job's duration and is restored when no interactive jobs remain,
// per Section 5.2. It returns a trigger that fires when the
// interactive job completes. Must be called in simulation context.
func (a *Agent) StartInteractive(job InteractiveJob) (*simclock.Trigger, error) {
	if a.released.Fired() || a.node == nil {
		return nil, ErrReleased
	}
	if a.FreeSlots() == 0 {
		return nil, ErrBusy
	}
	if _, dup := a.activePL[job.ID]; dup {
		return nil, fmt.Errorf("glidein: interactive job %q already running here", job.ID)
	}
	wasIdle := len(a.activePL) == 0
	a.activePL[job.ID] = job.PerformanceLoss
	a.applyBatchShare(wasIdle)
	if a.FreeSlots() == 0 && a.OnBusy != nil {
		a.OnBusy(a)
	}

	r := &interactive{a: a, job: job}
	r.ctx = InteractiveContext{Sim: a.sim, Slot: a.node.CPU.NewSlot("interactive-vm", interactiveTickets), Node: a.node}
	a.sim.InitTrigger(&r.done)
	r.step = r.next
	a.sim.Post(r.step)
	return &r.done, nil
}

// interactive is one job on an interactive VM. Its context, with the
// VM's slot, and its completion trigger share this allocation, and one
// continuation, step, bound once, serves as both the posted start of
// the body and the done the body calls.
type interactive struct {
	a       *Agent
	job     InteractiveJob
	ctx     InteractiveContext
	done    simclock.Trigger
	step    func() // r.next
	started bool
}

// next is the job's start the first time it runs, its cleanup the
// second: the slot closes, the batch VM's share is restored and done
// fires.
func (r *interactive) next() {
	a := r.a
	if !r.started {
		r.started = true
		if r.job.RunCB != nil {
			r.job.RunCB(&r.ctx, r.step)
			return
		}
	}
	r.ctx.Slot.Close()
	delete(a.activePL, r.job.ID)
	if !a.released.Fired() {
		// Skip share juggling on a dead agent: its batch VM is
		// already closed.
		a.applyBatchShare(false)
		if a.OnFree != nil {
			a.OnFree(a)
		}
	}
	r.done.Fire()
	a.maybeLeave()
}
