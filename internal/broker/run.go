package broker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

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
	rc.Sim.AfterFunc(rc.st.Network().TransferTime(defaultFirstOutputBytes), rc.defaultBody)
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
		slotDone := rc.slotDone
		for _, s := range rc.Slots {
			s.Start(cpu).OnFire(slotDone)
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
	job := h.request.Job
	b.matchPass(h, func(cands []candidate) {
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
				if cands[i].queued < cands[i].site.QueueSlots() {
					chosen = &cands[i]
					break
				}
			}
		}
		if chosen == nil {
			if !b.admissionOK(h.request.User) {
				b.fail(h, ErrRejected)
				return
			}
			b.scheduleRetry(h)
			return
		}

		st := chosen.site
		b.cfg.Trace.Emit(b.matchedEvent(h, st.Name(), chosen.rank))
		b.lease(h, st.Name(), job.NodeNumber)
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
			b.sim.AfterFunc(b.cfg.AgentHeartbeat, p.loseAgent)
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
		b.tryExclusive(h, cands, 0, 0)
	})
}

// tryExclusive runs the job on the best candidate from cands[i] on that
// has the nodes free, and after a lost attempt goes on past it. tries
// counts the attempts made so far; the resubmission budget is checked
// while it is below the candidate count. A job left without a
// candidate fails: ErrRejected if no candidate was free and fair share
// turns the user away, ErrNoResources otherwise.
func (b *Broker) tryExclusive(h *Handle, cands []candidate, i, tries int) {
	if tries < len(cands) {
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
			b.cfg.Trace.Emit(b.matchedEvent(h, c.site.Name(), c.rank))
			b.runExclusiveAttempt(h, c.site, func(lost bool) {
				if lost {
					b.tryExclusive(h, cands, i+1, tries+1)
				}
			})
			return
		}
	}
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	if tries == 0 && !b.admissionOK(h.request.User) {
		b.fail(h, ErrRejected)
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
func (b *Broker) runExclusiveAttempt(h *Handle, st *site.Site, cont func(lost bool)) {
	job := h.request.Job
	b.lease(h, st.Name(), job.NodeNumber)
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
					b.noteResub(h, st.Name(), "queue timeout", nil)
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

func (b *Broker) runInteractiveShared(h *Handle) {
	job := h.request.Job
	first := true
	var attempt func()
	attempt = func() {
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			return
		}
		// Combined discovery+selection over the local registry.
		start := b.sim.Now()
		b.sim.AfterFunc(agentRegistryCost, func() {
			free := b.freeAgentsMatching(job, job.NodeNumber)
			if first {
				first = false
				h.Phases.Selection = b.sim.Since(start)
				h.subStart = b.sim.Since(h.submittedAt)
			}

			need := job.NodeNumber
			// Expand each free agent by its free interactive VM count:
			// with a multiprogramming degree above one, several subjobs
			// may share a node.
			var chosen []*glidein.Agent
			for _, a := range free {
				for k := 0; k < a.FreeSlots() && len(chosen) < need; k++ {
					chosen = append(chosen, a)
				}
				if len(chosen) == need {
					break
				}
			}

			place := func(chosen []*glidein.Agent) {
				if len(chosen) < need {
					if !b.admissionOK(h.request.User) {
						b.fail(h, ErrRejected)
						return
					}
					b.fail(h, ErrNoResources)
					return
				}
				// A hosting agent that dies mid-run sends the job back
				// to the registry, bounded by the resubmission budget.
				b.placeOnAgents(h, chosen, func(terminal bool) {
					if !terminal && !b.resubmitsSpent(h) {
						attempt()
					}
				})
			}

			if len(chosen) >= need {
				place(chosen)
				return
			}
			b.matchPass(h, func(cands []candidate) {
				b.fill(cands, 0, chosen, need, place)
			})
		})
	}
	attempt()
}

// fill makes up a shared job's shortfall with fresh agents on the
// candidates' idle machines, "in a similar way to the case of a batch
// job". It walks cands from i, launching on a site while the site has
// idle machines and its agents come up, and moves on when a launch
// fails or its agent is not ready within QueueTimeout. Once chosen
// holds need VMs, or the candidates run out, place gets them.
func (b *Broker) fill(cands []candidate, i int, chosen []*glidein.Agent, need int, place func([]*glidein.Agent)) {
	for i < len(cands) && len(chosen) < need && cands[i].free <= 0 {
		i++
	}
	if i == len(cands) || len(chosen) == need {
		place(chosen)
		return
	}
	st := cands[i].site
	// No TraceJob: the agent's 2PC is labeled by its own queue ID —
	// several launches may serve one attempt.
	glidein.LaunchAsync(b.sim, st, nil, 10,
		glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace},
		func(agent *glidein.Agent, bh *batch.Handle, err error) {
			if err != nil {
				if retryableSubmitErr(err) {
					b.noteSiteFailure(st.Name())
				}
				b.fill(cands, i+1, chosen, need, place)
				return
			}
			b.wireAgent(agent)
			b.waitTrigger(agent.Ready(), b.cfg.QueueTimeout, func(ready bool) {
				if !ready {
					st.Queue().Kill(bh.ID())
					b.fill(cands, i+1, chosen, need, place)
					return
				}
				cands[i].free--
				for k := 0; k < agent.FreeSlots() && len(chosen) < need; k++ {
					chosen = append(chosen, agent)
				}
				b.fill(cands, i, chosen, need, place)
			})
		})
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
// agent, not per agent, and the same way matchmaking evaluates them:
// the job's compiled predicates over the site's published row, read
// through this broker's own Config.Info. That is the row the scan
// decides on, so a partitioned index or a stale record gives both
// paths the same answer. The site's live LRM state is not read: it
// would hand this path, in zero virtual time, what the scan pays a
// probe round trip to learn. A site with no published record fails,
// as it does in the scan.
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
			b.reqMemo[a.Site().Name()] = false
		}
		left := len(b.reqMemo)
		cur := b.cfg.Info.DiscoverImmediate(b.cfg.PageSize)
		for page, ok := cur.Next(); ok && left > 0; page, ok = cur.Next() {
			req, _ := job.CompiledPredicates(page.Snapshot().Schema())
			for i := 0; i < page.Len(); i++ {
				if _, hosts := b.reqMemo[page.Name(i)]; hosts {
					v, err := req.EvalBool(page.Values(i))
					b.reqMemo[page.Name(i)] = err == nil && v
					left--
				}
			}
		}
		for _, a := range b.freeAgents {
			if b.reqMemo[a.Site().Name()] {
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

// placeOnAgents runs the job across the chosen interactive VMs. cont
// receives whether the job reached a terminal state (finished, failed
// or aborted); false means a hosting agent died mid-run and the
// caller should kill-and-resubmit.
func (b *Broker) placeOnAgents(h *Handle, agents []*glidein.Agent, cont func(terminal bool)) {
	// The chosen agents were alive at match time, but filling a
	// shortfall launches fresh agents — virtual time passes, and a
	// previously free agent may have died and been reaped from the
	// registry meanwhile. Treat that like a mid-run death: the caller
	// kills and resubmits under the usual budget.
	for _, a := range agents {
		if a.Released().Fired() {
			cont(false)
			return
		}
	}
	st := agents[0].Site()
	h.site = st.Name()
	if len(agents) > 1 {
		h.site = "agents"
	}
	h.shared = true
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Matched, Job: h.ID, Site: h.site, N: len(agents), Attempt: h.resub})

	// The broker still stages input files to the VM, dispatches the
	// job over its direct agent channel, and the agent sets it up on
	// the interactive VM — but the gatekeeper, GRAM and the local
	// queue are skipped entirely. Catalog datasets move first.
	p := b.newPlacement(h, st, agents, cont)
	b.stageData(h, st.Name(), func() {
		b.sim.AfterFunc(st.Costs().Stage+st.Network().RTT()+st.Costs().VMDispatch, p.dispatch)
	})
}

// placement is one shared-VM attempt: the job's subjobs on the chosen
// agents' interactive VMs, and the broker's wait for the outcome. Its
// triggers, run context and (for one agent) slot and completion lists
// share this one allocation. While it runs it is listed under each
// hosting agent in the registry (Broker.agents), whose one Released
// callback notifies it; it leaves those lists when it ends.
type placement struct {
	b      *Broker
	h      *Handle
	st     *site.Site
	agents []*glidein.Agent
	cont   func(terminal bool)

	jobDone simclock.Trigger // body finished; the VM placeholders release
	lost    simclock.Trigger // a hosting agent died, noticed one heartbeat later
	over    simclock.Trigger // first of the body's end, lost and an abort

	rc          RunContext
	bodyStarted bool
	placed      int
	vmDone      []*simclock.Trigger // per subjob: its VM was released
	waited      int                 // vmDone entries seen fired
	slotBuf     [1]*vmslot.Slot
	vmDoneBuf   [1]*simclock.Trigger
}

func (b *Broker) newPlacement(h *Handle, st *site.Site, agents []*glidein.Agent, cont func(bool)) *placement {
	p := &placement{b: b, h: h, st: st, agents: agents, cont: cont}
	b.sim.InitTrigger(&p.jobDone)
	b.sim.InitTrigger(&p.lost)
	b.sim.InitTrigger(&p.over)
	p.rc.init(b, h, st)
	p.rc.Slots = p.slotBuf[:0]
	p.vmDone = p.vmDoneBuf[:0]
	if len(agents) > len(p.slotBuf) {
		p.rc.Slots = make([]*vmslot.Slot, 0, len(agents))
		p.vmDone = make([]*simclock.Trigger, 0, len(agents))
	}
	return p
}

// dispatch starts one subjob per chosen VM.
func (p *placement) dispatch() {
	b, h := p.b, p.h
	onVM := p.onVM
	for i, a := range p.agents {
		done, err := a.StartInteractive(glidein.InteractiveJob{
			ID:              h.ID + "#" + strconv.Itoa(i) + "." + strconv.Itoa(h.resub),
			Owner:           h.request.User,
			PerformanceLoss: h.request.Job.PerformanceLoss,
			RunCB:           onVM,
		})
		if err != nil {
			// Registry race: someone took the VM. Treat as failure.
			p.jobDone.Fire()
			b.fail(h, ErrNoResources)
			p.cont(true)
			return
		}
		p.vmDone = append(p.vmDone, done)
	}
}

// onVM is every subjob's body: it records the VM's slot and holds the
// VM until the job is done; the last one to hold its VM starts the job
// in an event of its own. StartInteractive posts the bodies in call
// order, so slots line up with agents.
func (p *placement) onVM(ctx *glidein.InteractiveContext, fin func()) {
	p.rc.Slots = append(p.rc.Slots, ctx.Slot)
	p.placed++
	if p.placed == len(p.agents) {
		p.b.sim.Post(p.start)
	}
	p.jobDone.WaitThen(fin)
}

// start runs once every VM is set up: heartbeat monitoring, the body
// after the startup cost, and the wait for the outcome.
func (p *placement) start() {
	b, h := p.b, p.h
	b.started(h, h.site, len(p.agents))

	// Heartbeat monitoring: a hosting agent's death is noticed one
	// AgentHeartbeat after the loss.
	for i, a := range p.agents {
		if !slices.Contains(p.agents[:i], a) {
			b.watchAgent(a, p)
		}
	}
	b.sim.Post(p.afterStartup)

	h.onAbort(&p.over)
	p.over.WaitAny(p.end, &p.lost)
}

func (p *placement) afterStartup() {
	p.b.sim.AfterFunc(p.st.Costs().JobStartup, p.startBody)
}

func (p *placement) startBody() {
	if p.lost.Fired() {
		p.rc.killed.Fire()
	}
	p.bodyStarted = true
	p.h.onAbort(p.rc.Killed)
	p.rc.run(p.over.Fire)
}

// loseAgent is the heartbeat's verdict on a dead hosting agent: the
// wait learns of the loss first, then the body.
func (p *placement) loseAgent() {
	p.lost.Fire()
	if p.bodyStarted {
		p.rc.killed.Fire()
	}
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
		p.cont(true)
	case p.lost.Fired():
		// Agent lost: release the accounting, report the kill, let the
		// caller resubmit on the surviving registry. The HeartbeatLost
		// event is emitted here, not in the heartbeat callback, so it
		// cannot land after the job's terminal event.
		b.cfg.Trace.Emit(trace.Event{Kind: trace.HeartbeatLost, Job: h.ID, Site: h.site, Attempt: h.resub})
		b.release(h)
		b.noteResub(h, h.site, "agent lost", fmt.Errorf("%w while running %s", ErrAgentLost, h.ID))
		p.cont(false)
	default:
		p.awaitVMs()
	}
}

// awaitVMs finishes the job once every subjob's VM is released, in
// subjob order.
func (p *placement) awaitVMs() {
	for p.waited < len(p.vmDone) {
		t := p.vmDone[p.waited]
		p.waited++
		if !t.Fired() {
			t.WaitThen(p.awaitVMs)
			return
		}
	}
	p.b.release(p.h)
	p.b.finish(p.h)
	p.cont(true)
}

// watchAgent lists p under a hosting agent until p ends, so the agent's
// death reaches it. For an agent already gone the heartbeat starts now.
func (b *Broker) watchAgent(a *glidein.Agent, p *placement) {
	if a.Released().Fired() {
		b.sim.AfterFunc(b.cfg.AgentHeartbeat, p.loseAgent)
		return
	}
	b.agents[a] = append(b.agents[a], p)
}

// unwatchAgents takes an ending placement off its agents' lists.
func (b *Broker) unwatchAgents(p *placement) {
	for _, a := range p.agents {
		ps := b.agents[a]
		if i := slices.Index(ps, p); i >= 0 {
			b.agents[a] = slices.Delete(ps, i, i+1)
		}
	}
}
