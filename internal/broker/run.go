package broker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/glidein"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
)

// retryableSubmitErr reports whether a gatekeeper submission failure
// is transient (the site crashed, timed out or aborted the commit) —
// worth resubmitting elsewhere — rather than a definitive rejection.
func retryableSubmitErr(err error) bool {
	return errors.Is(err, site.ErrSiteDown) ||
		errors.Is(err, site.ErrGatekeeperTimeout) ||
		errors.Is(err, site.ErrCommitAborted)
}

// fairshareClass maps a job to its accounting class.
func fairshareClass(job *jdl.Job) fairshare.Class {
	if job.Interactive {
		return fairshare.InteractiveClass
	}
	return fairshare.BatchClass
}

// attemptID names the LRM job of h's current attempt. One LRM job per
// attempt: a retry may land on the site whose queue still holds the
// killed attempt while its body unwinds, and the queue rejects a
// duplicate id until that job finishes and is forgotten.
func attemptID(h *Handle) string {
	return h.ID + "." + strconv.Itoa(h.resub)
}

// subjobID names h's i-th subjob on a shared VM in the current
// attempt: ID#i.resub.
func subjobID(h *Handle, i int) string {
	if i == 0 && h.resub == 0 && h.subjob0 != "" {
		return h.subjob0
	}
	return h.ID + "#" + strconv.Itoa(i) + "." + strconv.Itoa(h.resub)
}

// interactiveTickets matches glidein's interactive share.
const interactiveTickets = 100

// defaultFirstOutputBytes is the size of the synthetic first output
// used when a request supplies no body.
const defaultFirstOutputBytes = 64

// init binds rc, embedded in a scheduling attempt, to the job it runs
// for on st.
func (rc *RunContext) init(b *Broker, h *Handle, st *site.Site) {
	rc.Sim = b.sim
	rc.h = h
	rc.st = st
	b.sim.InitTrigger(&rc.killed)
	b.sim.InitTrigger(&rc.over)
	b.sim.InitTrigger(&rc.slotsDone)
	rc.Killed = &rc.killed
}

// run executes the request's body (or the default, defaultBody) on
// rc.Slots and calls cont when it is over. A custom Body starts here,
// inside the event that reached this point.
func (rc *RunContext) run(cont func()) {
	if body := rc.h.request.Body; body != nil {
		body(rc, cont)
		return
	}
	rc.cont = cont
	if rc.step == nil {
		rc.step = rc.next
	}
	rc.Sim.AfterFunc(rc.st.Network().TransferTime(defaultFirstOutputBytes), rc.step)
}

// next is the default body's one continuation: the body the first
// time it runs, then the end of one of its slots' runs.
func (rc *RunContext) next() {
	if !rc.bodyRan {
		rc.bodyRan = true
		rc.defaultBody()
		return
	}
	rc.slotDone()
}

// defaultBody emits the first output, then burns the requested CPU on
// every slot in parallel until the last run finishes or Killed fires.
func (rc *RunContext) defaultBody() {
	rc.h.outputArrived(rc.Sim.Now())
	cpu := rc.h.request.CPU
	if cpu <= 0 {
		rc.cont()
		return
	}
	// A lone slot's own completion trigger is the one to wait on.
	var done *simclock.Trigger
	if len(rc.Slots) == 1 {
		done = rc.Slots[0].Start(cpu)
	} else {
		rc.remaining = len(rc.Slots)
		for _, s := range rc.Slots {
			s.Start(cpu).OnFire(rc.step)
		}
		done = &rc.slotsDone
	}
	rc.over.WaitAny(rc.cont, done, rc.Killed)
}

// slotDone counts one slot's run out; the last fires slotsDone.
func (rc *RunContext) slotDone() {
	rc.remaining--
	if rc.remaining == 0 {
		rc.slotsDone.Fire()
	}
}

// ---------------------------------------------------------------------
// Scenario 1 (Figure 5, arrow 1/2): sequential batch job, submitted
// together with a glide-in agent; queued in the CrossBroker when the
// grid is saturated.
// ---------------------------------------------------------------------

func (b *Broker) runBatch(h *Handle) {
	if h.state.Terminal() {
		return
	}
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	// The pass's continuation is bound once per job, so a job the
	// broker queue retries makes none per attempt.
	if h.batchPass == nil {
		h.batchPass = func(cands []candidate) { b.batchMatched(h, cands) }
	}
	b.matchPass(h, h.batchPass)
}

// batchMatched takes a batch attempt's pass: it places the job on the
// best candidate with room, or holds it in the broker queue.
func (b *Broker) batchMatched(h *Handle, cands []candidate) {
	job := h.request.Job
	if len(cands) == 0 {
		// A grid that is down is transient: hold the job and retry
		// after the backoff.
		if err := noCandidates(h); errors.Is(err, ErrNoResources) {
			h.lastErr = err
			b.scheduleRetry(h)
		} else {
			b.fail(h, err)
		}
		return
	}

	// Prefer a site with an idle machine; otherwise one with queue
	// space; otherwise hold the job in the CrossBroker (arrow 2).
	var chosen *candidate
	for i := range cands {
		if cands[i].free >= job.NodeNumber {
			chosen = &cands[i]
			break
		}
	}
	if chosen == nil {
		for i := range cands {
			if cands[i].queued < cands[i].e.st.QueueSlots() {
				chosen = &cands[i]
				break
			}
		}
	}
	if chosen == nil {
		b.scheduleRetry(h)
		return
	}

	st := chosen.e.st
	b.cfg.Trace.Emit(b.matchedEvent(h, st.Name(), chosen.rank))
	b.lease(h, chosen.e, job.NodeNumber)
	h.state = Submitted
	h.site = st.Name()
	h.subStart = b.sim.Since(h.submittedAt)
	// Input datasets move to the site while the lease holds it.
	b.stageData(h, st.Name(), func() {
		if job.NodeNumber > 1 {
			// Parallel batch jobs go through the gatekeeper without an
			// agent (the multi-programming scheme targets single nodes).
			b.runExclusiveOn(h, st)
			return
		}

		payload := &glidein.BatchPayload{ID: h.ID, Owner: h.request.User, Work: h.request.CPU}
		glidein.LaunchAsync(b.sim, st, payload, 0,
			glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace,
				TraceJob: h.ID, TraceAttempt: h.resub},
			func(agent *glidein.Agent, bh *batch.Handle, err error) {
				if err != nil {
					b.unlease(h, st.Name(), 1)
					if retryableSubmitErr(err) {
						// The gatekeeper died under the submission (possibly
						// between phase-1 accept and phase-2 commit — the abort
						// released the slot). Quarantine bookkeeping, then retry
						// elsewhere after the backoff.
						b.noteSiteFailure(st.Name())
						b.noteResub(h, st.Name(), "agent launch failed", err)
						b.scheduleRetry(h)
						return
					}
					b.fail(h, fmt.Errorf("broker: agent launch on %s: %w", st.Name(), err))
					return
				}
				b.noteSiteSuccess(st.Name())
				b.wireAgent(agent)

				bh.Started.OnFire(func() {
					b.unlease(h, st.Name(), 1)
					b.started(h, st.Name(), 1)
					// First output of the payload: startup then transfer.
					b.sim.Post(func() {
						b.sim.AfterFunc(st.Costs().JobStartup+st.Network().TransferTime(defaultFirstOutputBytes),
							func() { h.outputArrived(b.sim.Now()) })
					})
				})

				// Wait for the payload to finish; if the agent is evicted (or
				// the site crashes the queued agent job) first, resubmit ("new
				// agents will be submitted when possible"). bh.Done covers an
				// agent job killed while still queued — its body never ran, so
				// Released alone would wait forever.
				w := b.sim.NewTrigger()
				h.onAbort(w)
				w.WaitAny(func() {
					h.endAttempt()
					if agent.BatchDone().Fired() {
						b.release(h)
						b.finish(h)
						return
					}
					if !bh.Started.Fired() {
						b.unlease(h, st.Name(), 1) // reservation for a job that never ran
					}
					if h.abort.Fired() {
						st.Queue().Kill(bh.ID())
						b.release(h)
						b.fail(h, h.abortErr)
						return
					}
					// Evicted or lost. An agent that died still queued leaves
					// the LRM queue too, or its job would start later.
					if !bh.Started.Fired() {
						st.Queue().Kill(bh.ID())
					}
					b.release(h)
					b.noteResub(h, st.Name(), "agent lost", fmt.Errorf("%w: payload on %s unfinished", ErrAgentLost, st.Name()))
					b.scheduleRetry(h)
					b.kickDispatch()
				}, agent.BatchDone(), agent.Released(), bh.Done)
			})
	})
}

// noCandidates says why a pass left h no candidate. Matching sites that
// were quarantined or failed their probe mean the grid is down, not
// that the requirements went unmet: ErrNoResources. Otherwise nothing
// matched, an empty registry included: ErrNoMatch.
func noCandidates(h *Handle) error {
	if h.unavailable > 0 {
		return ErrNoResources
	}
	return ErrNoMatch
}

// wireAgent registers a live agent in the broker's local registry and
// hooks fair-share reclassification and availability callbacks.
func (b *Broker) wireAgent(agent *glidein.Agent) {
	b.agents[agent] = nil
	agent.Ready().OnFire(func() {
		if agent.Free() {
			b.freeAgentAdd(agent)
		}
	})
	if b.cfg.Fair != nil {
		agent.OnYield = func(batchID string, pl int) {
			b.cfg.Fair.Reclass(batchID, fairshare.YieldedBatchClass, pl)
		}
		agent.OnRestore = func(batchID string) {
			b.cfg.Fair.Reclass(batchID, fairshare.BatchClass, 0)
		}
	}
	agent.OnFree = func(*glidein.Agent) {
		b.freeAgentAdd(agent)
		b.kickDispatch()
	}
	agent.OnBusy = func(*glidein.Agent) {
		b.freeAgentRemove(agent)
	}
	agent.Released().OnFire(func() {
		b.freeAgentRemove(agent)
		b.kickDispatch()
		// The placements running on the agent learn of its death one
		// heartbeat later, in the order they started.
		for _, p := range b.agents[agent] {
			p.heartbeat()
		}
		delete(b.agents, agent)
	})
}

// freeAgentIndex is where agent sits, or would sit, in the ID-sorted
// free list, and whether it is there.
func (b *Broker) freeAgentIndex(agent *glidein.Agent) (int, bool) {
	id := agent.ID()
	i := sort.Search(len(b.freeAgents), func(k int) bool { return b.freeAgents[k].ID() >= id })
	return i, i < len(b.freeAgents) && b.freeAgents[i] == agent
}

// freeAgentAdd records an agent with a free interactive VM in the
// ID-sorted candidate list (no-op if already present).
func (b *Broker) freeAgentAdd(agent *glidein.Agent) {
	if i, ok := b.freeAgentIndex(agent); !ok {
		b.freeAgents = slices.Insert(b.freeAgents, i, agent)
	}
}

// freeAgentRemove drops an agent from the candidate list (no-op if
// absent).
func (b *Broker) freeAgentRemove(agent *glidein.Agent) {
	if i, ok := b.freeAgentIndex(agent); ok {
		b.freeAgents = slices.Delete(b.freeAgents, i, i+1)
	}
}

// ---------------------------------------------------------------------
// Scenario 2 (Figure 5, arrow 3): interactive job in exclusive mode —
// a free machine through the gatekeeper, with on-line scheduling
// (kill-and-resubmit if the job sits in a remote queue).
// ---------------------------------------------------------------------

func (b *Broker) runInteractiveExclusive(h *Handle) {
	b.matchPass(h, func(cands []candidate) {
		if len(cands) == 0 {
			b.fail(h, noCandidates(h))
			return
		}
		h.subStart = b.sim.Since(h.submittedAt)
		b.tryExclusive(h, cands, 0)
	})
}

// tryExclusive runs the job on the best candidate from cands[i] on that
// has the nodes free, and after a lost attempt goes on past it. The
// resubmission budget is checked before every step, so a job whose
// last attempt spends it fails with ErrMaxResubmits. A job left without
// a candidate fails with ErrNoResources.
func (b *Broker) tryExclusive(h *Handle, cands []candidate, i int) {
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	if b.resubmitsSpent(h) {
		return
	}
	for i < len(cands) && cands[i].free < h.request.Job.NodeNumber {
		i++
	}
	if i < len(cands) {
		c := &cands[i]
		b.cfg.Trace.Emit(b.matchedEvent(h, c.e.st.Name(), c.rank))
		b.runExclusiveAttempt(h, c.e, func(lost bool) {
			if lost {
				b.tryExclusive(h, cands, i+1)
			}
		})
		return
	}
	b.fail(h, ErrNoResources)
}

// exclusive is one gatekeeper-path attempt: the LRM job that runs the
// body on dedicated nodes, and the broker's wait for its outcome. The
// attempt's triggers, its run context and (for one node) its slot list
// share this one allocation.
type exclusive struct {
	b   *Broker
	h   *Handle
	st  *site.Site
	ctx *batch.ExecCtx
	fin func()
	// bodyDone fires when the body is over; killed relays the LRM's
	// kill notification (the site crashed under the running job); over
	// is the broker's first-of wait on them.
	bodyDone, killed, over simclock.Trigger
	rc                     RunContext
	slotBuf                [1]*vmslot.Slot
}

func (b *Broker) newExclusive(h *Handle, st *site.Site) *exclusive {
	x := &exclusive{b: b, h: h, st: st}
	b.sim.InitTrigger(&x.bodyDone)
	b.sim.InitTrigger(&x.killed)
	b.sim.InitTrigger(&x.over)
	x.rc.init(b, h, st)
	return x
}

// request is the LRM job of the attempt.
func (x *exclusive) request(priority int) batch.Request {
	return batch.Request{
		ID:       attemptID(x.h),
		Owner:    x.h.request.User,
		Nodes:    x.h.request.Job.NodeNumber,
		Priority: priority,
		RunCB:    x.runCB,
	}
}

// runCB is the attempt's LRM body: one full-share slot per allocated
// node, startup cost, then the job body; fin hands the nodes back to
// the queue.
func (x *exclusive) runCB(ctx *batch.ExecCtx, fin func()) {
	x.ctx, x.fin = ctx, fin
	ctx.Killed.OnFire(x.killed.Fire)
	slots := x.slotBuf[:0]
	if len(ctx.Nodes) > len(x.slotBuf) {
		slots = make([]*vmslot.Slot, 0, len(ctx.Nodes))
	}
	for _, n := range ctx.Nodes {
		slots = append(slots, n.CPU.NewSlot(x.h.ID, interactiveTickets))
	}
	x.rc.Slots = slots
	x.b.sim.AfterFunc(x.st.Costs().JobStartup, x.startBody)
}

func (x *exclusive) startBody() {
	x.ctx.Killed.OnFire(x.rc.Killed.Fire)
	x.h.onAbort(x.rc.Killed)
	x.rc.run(x.bodyOver)
}

func (x *exclusive) bodyOver() {
	for _, s := range x.rc.Slots {
		s.Close()
	}
	x.bodyDone.Fire()
	x.fin()
}

// await takes the attempt's outcome at the first of the body's end, the
// LRM's kill, the LRM dropping the job (bh.Done) and an abort: an abort
// fails the job, a job killed or dropped before its body was over was
// lost with its site, and any other finished. next learns whether the
// job was lost, which leaves it for the caller to resubmit.
func (x *exclusive) await(bh *batch.Handle, next func(lost bool)) {
	b, h, st := x.b, x.h, x.st
	h.onAbort(&x.over)
	x.over.WaitAny(func() {
		h.endAttempt()
		b.release(h)
		// bodyDone also fires when the body stopped because it was
		// killed, so the failure outcomes are checked first.
		lost := false
		switch {
		case h.abort.Fired():
			st.Queue().Kill(bh.ID())
			b.fail(h, h.abortErr)
		case x.killed.Fired(), !x.bodyDone.Fired():
			// The site crashed under the job. Its death notification
			// already released the leases and quarantined it.
			b.noteResub(h, st.Name(), "site lost", fmt.Errorf("%w: %s died running %s", ErrSiteLost, st.Name(), h.ID))
			lost = true
		default:
			b.finish(h)
		}
		next(lost)
	}, &x.bodyDone, &x.killed, bh.Done)
}

// runExclusiveAttempt submits the job to one site and enforces the
// on-line scheduling rule. cont receives whether the attempt was lost
// (the submission failed, the job sat in the queue, or the site died
// under it), which sends the caller to the next candidate; otherwise
// the job reached a terminal state there. The lease is released last,
// after the outcome is recorded.
func (b *Broker) runExclusiveAttempt(h *Handle, e *siteEntry, cont func(lost bool)) {
	job, st := h.request.Job, e.st
	b.lease(h, e, job.NodeNumber)
	done := func(lost bool) {
		b.unlease(h, st.Name(), job.NodeNumber)
		cont(lost)
	}
	h.state = Submitted
	b.stageData(h, st.Name(), func() {
		x := b.newExclusive(h, st)
		req := x.request(10) // interactive jobs ahead of local batch work
		st.SubmitAsync(req, site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
			if err != nil {
				b.noteSiteFailure(st.Name())
				b.noteResub(h, st.Name(), "submit failed", err)
				done(true)
				return
			}
			b.noteSiteSuccess(st.Name())
			// "The scheduler attempts to run each interactive job
			// immediately. If the job enters a queue rather than immediately
			// starting execution, it will be resubmitted to any other
			// resource."
			b.waitTrigger(bh.Started, b.cfg.QueueTimeout, func(started bool) {
				if !started {
					st.Queue().Kill(bh.ID())
					b.noteResub(h, st.Name(), "queue timeout", fmt.Errorf("%w at %s", ErrQueueTimeout, st.Name()))
					done(true)
					return
				}
				b.started(h, st.Name(), job.NodeNumber)
				x.await(bh, done)
			})
		})
	})
}

// runExclusiveOn is the gatekeeper-path variant used for parallel
// batch jobs; a site death mid-flight re-queues the job through the
// broker's retry path.
func (b *Broker) runExclusiveOn(h *Handle, st *site.Site) {
	job := h.request.Job
	x := b.newExclusive(h, st)
	st.SubmitAsync(x.request(0), site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
		b.unlease(h, st.Name(), job.NodeNumber)
		if err != nil {
			if retryableSubmitErr(err) {
				b.noteSiteFailure(st.Name())
				b.noteResub(h, st.Name(), "submit failed", err)
				b.scheduleRetry(h)
				return
			}
			b.fail(h, err)
			return
		}
		b.noteSiteSuccess(st.Name())
		bh.Started.OnFire(func() { b.started(h, st.Name(), job.NodeNumber) })
		h.site = st.Name()
		x.await(bh, func(lost bool) {
			if lost {
				b.scheduleRetry(h)
			}
		})
	})
}

// ---------------------------------------------------------------------
// Scenario 3 (Figure 5, arrow 4): interactive job in shared mode —
// the broker's local agent registry supplies interactive VMs
// immediately; missing VMs are filled by launching fresh agents on
// idle machines; the submission fails if the grid cannot host it
// (interactive jobs never preempt interactive jobs).
// ---------------------------------------------------------------------

// runInteractiveShared starts one shared-VM attempt of h on a
// placement from the broker's free list; first says whether it is the
// job's first attempt, whose selection measures the phases.
func (b *Broker) runInteractiveShared(h *Handle, first bool) {
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	p := b.newPlacement(h, first)
	// Combined discovery+selection over the local registry.
	p.since = b.sim.Now()
	p.phase = placeSelect
	b.sim.AfterFunc(agentRegistryCost, p.step)
}

// choose takes the free VMs the registry offers once its cost is paid.
// Each free agent counts once per free interactive VM: with a
// multiprogramming degree above one, several subjobs may share a node.
// A shortfall is filled from a candidate pass.
func (p *placement) choose() {
	b, h := p.b, p.h
	job := h.request.Job
	free := b.freeAgentsMatching(job, job.NodeNumber)
	if p.first {
		h.Phases.Selection = b.sim.Since(p.since)
		h.subStart = b.sim.Since(h.submittedAt)
	}
	p.need = job.NodeNumber
	for _, a := range free {
		for k := 0; k < a.FreeSlots() && len(p.chosen) < p.need; k++ {
			p.chosen = append(p.chosen, a)
		}
		if len(p.chosen) == p.need {
			break
		}
	}
	if len(p.chosen) >= p.need {
		p.place()
		return
	}
	if p.matched == nil {
		p.matched = p.candidates
	}
	b.matchPass(h, p.matched)
}

// candidates receives the pass that makes up a shortfall.
func (p *placement) candidates(cands []candidate) {
	if len(cands) == 0 && len(p.chosen) == 0 {
		p.b.fail(p.h, noCandidates(p.h))
		return
	}
	p.cands, p.ci = cands, 0
	p.b.fill(p)
}

// fill makes up a shared job's shortfall with fresh agents on the
// candidates' idle machines, "in a similar way to the case of a batch
// job". It walks p.cands from p.ci, launching on a site while the site
// has idle machines and its agents come up, and moves on when a launch
// fails or its agent is not ready within QueueTimeout. Once p.chosen
// holds the VMs the job needs, or the candidates run out, the
// placement places what it holds.
func (b *Broker) fill(p *placement) {
	for p.ci < len(p.cands) && len(p.chosen) < p.need && p.cands[p.ci].free <= 0 {
		p.ci++
	}
	if p.ci == len(p.cands) || len(p.chosen) == p.need {
		p.place()
		return
	}
	if p.launched == nil {
		p.launched, p.readied = p.launchDone, p.agentReady
	}
	// No TraceJob: the agent's 2PC is labeled by its own queue ID —
	// several launches may serve one attempt.
	glidein.LaunchAsync(b.sim, p.cands[p.ci].e.st, nil, 10,
		glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace}, p.launched)
}

// launchDone takes a fill launch's outcome: a failed launch moves on to
// the next candidate, a launched agent is waited for up to
// QueueTimeout.
func (p *placement) launchDone(agent *glidein.Agent, bh *batch.Handle, err error) {
	b := p.b
	if err != nil {
		if retryableSubmitErr(err) {
			b.noteSiteFailure(p.cands[p.ci].e.st.Name())
		}
		p.ci++
		b.fill(p)
		return
	}
	b.wireAgent(agent)
	p.agent, p.bh = agent, bh
	b.waitTrigger(agent.Ready(), b.cfg.QueueTimeout, p.readied)
}

// agentReady adds a launched agent's VMs to the chosen ones, or kills
// an agent that was not ready in time and moves on.
func (p *placement) agentReady(ready bool) {
	b, agent, bh := p.b, p.agent, p.bh
	p.agent, p.bh = nil, nil
	if !ready {
		p.cands[p.ci].e.st.Queue().Kill(bh.ID())
		p.ci++
		b.fill(p)
		return
	}
	p.cands[p.ci].free--
	for k := 0; k < agent.FreeSlots() && len(p.chosen) < p.need; k++ {
		p.chosen = append(p.chosen, agent)
	}
	b.fill(p)
}

// freeAgentsMatching returns free agents whose site satisfies the
// job's Requirements, in randomized order. The ID-sorted candidate
// list is exact — OnFree/OnBusy/Released keep it in step with every
// slot transition — so the scan never polls FreeSlots; a list entry
// IS a free agent (a deterministic base order, then the broker's
// seeded shuffle). It reuses a scratch result buffer: the returned
// slice is only valid until the next call, which is fine because
// callers consume it before yielding to the simulation.
//
// Requirements are evaluated once per distinct site that hosts a free
// agent, not per agent, with the job's class's compiled predicates
// over the site's published row. The row is read by name through this
// broker's Config.Info as a discovery traversal started now would page
// it, so a partitioned index or a stale record answers as it does for
// a broker that queries its index each pass. A delta-subscribed
// broker's scan reads its subscription's pinned snapshots instead,
// which may lag the index this read sees. The site's live LRM state
// is not read: it would hand this path, in zero virtual time, what
// the scan pays a probe round trip to learn. A site with no published
// record fails, as it does in the scan.
//
// need caps how many leading agents the caller will consume, so only
// that prefix is randomized (a partial Fisher-Yates draws each prefix
// element uniformly from the whole match set, exactly as a full
// shuffle would).
func (b *Broker) freeAgentsMatching(job *jdl.Job, need int) []*glidein.Agent {
	out := b.freeScratch[:0]
	if job.Requirements == nil {
		out = append(out, b.freeAgents...)
	} else if len(b.freeAgents) > 0 {
		if b.reqMemo == nil {
			b.reqMemo = make(map[string]bool)
		}
		clear(b.reqMemo)
		for _, a := range b.freeAgents {
			name := a.Site().Name()
			pass, seen := b.reqMemo[name]
			if !seen {
				if sc, vals, ok := b.cfg.Info.Row(name); ok {
					req, _ := job.CompiledPredicates(sc, &b.classes)
					v, err := req.EvalBool(vals)
					pass = err == nil && v
				}
				b.reqMemo[name] = pass
			}
			if pass {
				out = append(out, a)
			}
		}
	}
	b.freeScratch = out
	if !b.cfg.Deterministic {
		k := need
		if k > len(out) {
			k = len(out)
		}
		for i := 0; i < k; i++ {
			j := i + b.rng.Intn(len(out)-i)
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// place runs the job across the chosen interactive VMs, or fails it
// when the registry and the fill came up short.
func (p *placement) place() {
	b, h := p.b, p.h
	p.cands = nil
	if len(p.chosen) < p.need {
		b.fail(h, ErrNoResources)
		return
	}
	// The chosen agents were alive at match time, but filling a
	// shortfall launches fresh agents — virtual time passes, and a
	// previously free agent may have died and been reaped from the
	// registry meanwhile. Treat that like a mid-run death: the job goes
	// back to the registry under the usual budget.
	for _, a := range p.chosen {
		if a.Released().Fired() {
			p.resubmit()
			return
		}
	}
	st := p.chosen[0].Site()
	p.st = st
	h.site = st.Name()
	if len(p.chosen) > 1 {
		h.site = "agents"
	}
	h.shared = true
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Matched, Job: h.ID, Site: h.site, N: len(p.chosen), Attempt: h.resub})

	p.rc.init(b, h, st)
	if n := len(p.chosen); cap(p.rc.Slots) < n {
		p.rc.Slots = make([]*vmslot.Slot, 0, n)
		p.vmDone = make([]*simclock.Trigger, 0, n)
	}
	// The broker still stages input files to the VM, dispatches the
	// job over its direct agent channel, and the agent sets it up on
	// the interactive VM — but the gatekeeper, GRAM and the local
	// queue are skipped entirely. Catalog datasets move first.
	p.phase = placeSend
	b.stageData(h, st.Name(), p.step)
}

// resubmit sends the job back to the registry after a hosting agent
// died, bounded by the resubmission budget. The retry takes a fresh
// placement: this one may still be reached.
func (p *placement) resubmit() {
	if !p.b.resubmitsSpent(p.h) {
		p.b.runInteractiveShared(p.h, false)
	}
}

// placement is one shared-VM attempt: the selection over the broker's
// agent registry, the fresh agents that make up a shortfall, the job's
// subjobs on the chosen agents' interactive VMs, and the broker's wait
// for the outcome. Its triggers, run context and (for one VM) chosen,
// slot and completion lists share this one allocation. While it runs
// it is listed under each hosting agent in the registry
// (Broker.agents), whose one Released callback notifies it; it leaves
// those lists when it ends.
//
// The attempt binds its continuations once. step walks the phases in
// order (phase names the next), one scheduled at a time; the outcome
// wait, which the loss of an agent or an abort can start while a phase
// is still pending, has a continuation of its own, settle. The pass
// and the launches that fill a shortfall answer through matched,
// launched and readied, bound the first time a fill needs them.
//
// A placement comes from the broker's free list and goes back to it
// from one point only, the job's finish in awaitVMs, and only when
// nothing can reach it any more (quiescent). Every other ending (a
// lost agent, an abort, the dispatch race, a resubmission) leaves it to
// the collector, and a retry takes a fresh one.
type placement struct {
	b      *Broker
	h      *Handle
	st     *site.Site
	first  bool      // the job's first attempt: its selection measures the phases
	since  time.Time // the registry cost began
	need   int
	chosen []*glidein.Agent // one entry per VM: the hosting agents once placed

	// The fill of a shortfall: the pass's candidates, the one tried,
	// and the launched agent waited for.
	cands []candidate
	ci    int
	agent *glidein.Agent
	bh    *batch.Handle

	jobDone simclock.Trigger // body finished; the VM placeholders release
	over    simclock.Trigger // first of the body's end, a lost agent and an abort

	step, settle func()                                     // p.next and p.outcome
	onVM         func(*glidein.InteractiveContext, func())  // p.hold
	matched      func([]candidate)                          // p.candidates
	launched     func(*glidein.Agent, *batch.Handle, error) // p.launchDone
	readied      func(bool)                                 // p.agentReady
	phase        placePhase                                 // what step does next
	lost         bool                                       // a hosting agent died, noticed one heartbeat later
	ended        bool                                       // the outcome was taken; settle now waits out the VMs
	bodyStarted  bool
	heartbeats   int // loseAgent verdicts pending

	rc        RunContext
	placed    int
	vmDone    []*simclock.Trigger // per subjob: its VM was released
	waited    int                 // vmDone entries seen fired
	chosenBuf [1]*glidein.Agent
	slotBuf   [1]*vmslot.Slot
	vmDoneBuf [1]*simclock.Trigger
}

// placePhase is the placement phase step runs next.
type placePhase uint8

const (
	placeSelect   placePhase = iota // the registry cost is paid: choose the VMs
	placeSend                       // input staged: the dispatch message travels to the agents
	placeDispatch                   // the message arrived: start the subjobs
	placeStart                      // every VM is held: start the job
	placeStartup                    // the startup cost begins
	placeBody                       // the startup cost is paid: run the body
	placeBodyOver                   // the body called its continuation
)

// newPlacement takes a placement for h's next attempt from the broker's
// free list, keeping its bound continuations and grown lists, or makes
// one and binds them.
func (b *Broker) newPlacement(h *Handle, first bool) *placement {
	var p *placement
	if n := len(b.placements); n > 0 {
		p = b.placements[n-1]
		b.placements = b.placements[:n-1]
		*p = placement{
			b: b, step: p.step, settle: p.settle, onVM: p.onVM,
			matched: p.matched, launched: p.launched, readied: p.readied,
			chosen: p.chosen, vmDone: p.vmDone,
			rc: RunContext{Slots: p.rc.Slots, step: p.rc.step},
		}
	} else {
		p = &placement{b: b}
		p.step, p.settle, p.onVM = p.next, p.outcome, p.hold
		p.chosen, p.rc.Slots, p.vmDone = p.chosenBuf[:0], p.slotBuf[:0], p.vmDoneBuf[:0]
	}
	p.h, p.first = h, first
	b.sim.InitTrigger(&p.jobDone)
	b.sim.InitTrigger(&p.over)
	return p
}

// next runs the placement's pending phase.
func (p *placement) next() {
	switch p.phase {
	case placeSelect:
		p.choose()
	case placeSend:
		p.phase = placeDispatch
		st := p.st
		p.b.sim.AfterFunc(st.Costs().Stage+st.Network().RTT()+st.Costs().VMDispatch, p.step)
	case placeDispatch:
		p.dispatch()
	case placeStart:
		p.start()
	case placeStartup:
		p.phase = placeBody
		p.b.sim.AfterFunc(p.st.Costs().JobStartup, p.step)
	case placeBody:
		p.startBody()
	case placeBodyOver:
		p.over.Fire()
	}
}

// dispatch starts one subjob per chosen VM.
func (p *placement) dispatch() {
	b, h := p.b, p.h
	for i, a := range p.chosen {
		done, err := a.StartInteractive(glidein.InteractiveJob{
			ID:              subjobID(h, i),
			Owner:           h.request.User,
			PerformanceLoss: h.request.Job.PerformanceLoss,
			RunCB:           p.onVM,
		})
		if err != nil {
			// Registry race: someone took the VM. Treat as failure.
			p.jobDone.Fire()
			b.fail(h, ErrNoResources)
			return
		}
		p.vmDone = append(p.vmDone, done)
	}
}

// hold is every subjob's body: it records the VM's slot and holds the
// VM until the job is done; the last one to hold its VM starts the job
// in an event of its own. StartInteractive posts the bodies in call
// order, so slots line up with agents.
func (p *placement) hold(ctx *glidein.InteractiveContext, fin func()) {
	p.rc.Slots = append(p.rc.Slots, ctx.Slot)
	p.placed++
	if p.placed == len(p.chosen) {
		p.phase = placeStart
		p.b.sim.Post(p.step)
	}
	p.jobDone.WaitThen(fin)
}

// start runs once every VM is set up: heartbeat monitoring, the body
// after the startup cost, and the wait for the outcome.
func (p *placement) start() {
	b, h := p.b, p.h
	b.started(h, h.site, len(p.chosen))

	// Heartbeat monitoring: a hosting agent's death is noticed one
	// AgentHeartbeat after the loss.
	for i, a := range p.chosen {
		if !slices.Contains(p.chosen[:i], a) {
			b.watchAgent(a, p)
		}
	}
	p.phase = placeStartup
	b.sim.Post(p.step)

	h.onAbort(&p.over)
	p.over.WaitThen(p.settle)
}

func (p *placement) startBody() {
	if p.lost {
		p.rc.killed.Fire()
	}
	p.bodyStarted = true
	p.h.onAbort(p.rc.Killed)
	p.phase = placeBodyOver
	p.rc.run(p.step)
}

// heartbeat schedules the heartbeat's verdict on a hosting agent that
// died.
func (p *placement) heartbeat() {
	p.heartbeats++
	p.b.sim.AfterFunc(p.b.cfg.AgentHeartbeat, p.loseAgent)
}

// loseAgent is the heartbeat's verdict on a dead hosting agent: the
// wait learns of the loss first, then the body.
func (p *placement) loseAgent() {
	p.heartbeats--
	p.lost = true
	p.over.Fire()
	if p.bodyStarted {
		p.rc.killed.Fire()
	}
}

// outcome is settle: the attempt's end the first time it runs, then
// the wait for the VMs.
func (p *placement) outcome() {
	if p.ended {
		p.awaitVMs()
		return
	}
	p.ended = true
	p.end()
}

// end takes the attempt's outcome.
func (p *placement) end() {
	b, h := p.b, p.h
	h.endAttempt()
	b.unwatchAgents(p)
	p.jobDone.Fire() // unwind the VM placeholders on surviving agents
	// The body also ends when its allocation was lost or aborted, so
	// the failure outcomes are checked first.
	switch {
	case h.abort.Fired():
		b.release(h)
		b.fail(h, h.abortErr)
	case p.lost:
		// Agent lost: release the accounting, report the kill, resubmit
		// on the surviving registry. The HeartbeatLost event is emitted
		// here, not in the heartbeat callback, so it cannot land after
		// the job's terminal event.
		b.cfg.Trace.Emit(trace.Event{Kind: trace.HeartbeatLost, Job: h.ID, Site: h.site, Attempt: h.resub})
		b.release(h)
		b.noteResub(h, h.site, "agent lost", fmt.Errorf("%w while running %s", ErrAgentLost, h.ID))
		p.resubmit()
	default:
		p.awaitVMs()
	}
}

// awaitVMs finishes the job once every subjob's VM is released, in
// subjob order. This is the placement's one way back to the free list.
func (p *placement) awaitVMs() {
	for p.waited < len(p.vmDone) {
		t := p.vmDone[p.waited]
		p.waited++
		if !t.Fired() {
			t.WaitThen(p.settle)
			return
		}
	}
	b, h := p.b, p.h
	if p.quiescent() {
		p.recycle()
	}
	b.release(h)
	b.finish(h)
}

// quiescent reports whether nothing can reach the finished placement
// any more: no heartbeat verdict is pending from a hosting agent that
// died while the placement was listed, endAttempt cleared the handle's
// abort list, the body was the default one (a custom body may keep rc
// past its done), and no trigger of its own holds a registration.
func (p *placement) quiescent() bool {
	if p.heartbeats > 0 || len(p.h.aborts) > 0 || p.h.request.Body != nil {
		return false
	}
	// The default body's first-of wait leaves Killed registered to fire
	// the body's own over, which has fired: firing Killed now runs
	// nothing and drops that registration.
	if p.rc.over.Fired() {
		p.rc.killed.Fire()
	}
	for _, t := range [...]*simclock.Trigger{&p.jobDone, &p.over, &p.rc.killed, &p.rc.over, &p.rc.slotsDone} {
		if t.Registered() != 0 {
			return false
		}
	}
	return true
}

// recycle returns a quiescent placement to the broker's free list. It
// drops what the placement held of the job, its agents and their
// slots; newPlacement resets the rest.
func (p *placement) recycle() {
	clear(p.chosen)
	clear(p.rc.Slots)
	clear(p.vmDone)
	p.chosen, p.rc.Slots, p.vmDone = p.chosen[:0], p.rc.Slots[:0], p.vmDone[:0]
	p.h, p.st, p.rc.h, p.rc.st, p.rc.cont = nil, nil, nil, nil, nil
	p.b.placements = append(p.b.placements, p)
}

// watchAgent lists p under a hosting agent until p ends, so the agent's
// death reaches it. For an agent already gone the heartbeat starts now.
func (b *Broker) watchAgent(a *glidein.Agent, p *placement) {
	if a.Released().Fired() {
		p.heartbeat()
		return
	}
	b.agents[a] = append(b.agents[a], p)
}

// unwatchAgents takes an ending placement off its agents' lists.
func (b *Broker) unwatchAgents(p *placement) {
	for _, a := range p.chosen {
		ps := b.agents[a]
		if i := slices.Index(ps, p); i >= 0 {
			b.agents[a] = slices.Delete(ps, i, i+1)
		}
	}
}
