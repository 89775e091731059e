package broker

import (
	"errors"
	"fmt"
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
// attempt: a retry may land on the site that still holds the killed
// attempt's record, and the queue rejects a duplicate id.
func attemptID(h *Handle) string {
	return h.ID + "." + strconv.Itoa(h.resub)
}

// interactiveTickets matches glidein's interactive share.
const interactiveTickets = 100

// defaultFirstOutputBytes is the size of the synthetic first output
// used when a request supplies no body.
const defaultFirstOutputBytes = 64

// makeRunContext builds the body context for a job running on slots
// reached over the given network profile. Output and Input block, so
// only a custom Body — which runBody runs as a process — calls them.
func (b *Broker) makeRunContext(h *Handle, st *site.Site, slots []*vmslot.Slot) *RunContext {
	return &RunContext{
		Sim:    b.sim,
		Slots:  slots,
		Killed: b.sim.NewTrigger(),
		Output: func(n int) {
			b.sim.Sleep(st.Network().TransferTime(n))
			h.FirstOutput.Fire()
		},
		Input: func(n int) {
			b.sim.Sleep(st.Network().RTT() + st.Network().TransferTime(n))
		},
	}
}

// runBody executes the request's body (or the default: emit first
// output, then burn the requested CPU on every node in parallel) and
// calls cont when it is over. A custom Body is written as blocking
// steps, so it is the one part of a scheduling flow that runs as a
// process: started here, inside the event that reached this point.
func (b *Broker) runBody(h *Handle, st *site.Site, rc *RunContext, cont func()) {
	if h.request.Body != nil {
		simclock.Blocking(b.sim, h.request.Body)(rc, cont)
		return
	}
	b.sim.AfterFunc(st.Network().TransferTime(defaultFirstOutputBytes), func() {
		h.FirstOutput.Fire()
		if h.request.CPU <= 0 {
			cont()
			return
		}
		done := b.sim.NewTrigger()
		remaining := len(rc.Slots)
		for _, s := range rc.Slots {
			t := s.Start(h.request.CPU)
			t.OnFire(func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		if rc.Killed == nil {
			done.WaitThen(cont)
			return
		}
		w := b.sim.NewTrigger()
		done.OnFire(w.Fire)
		rc.Killed.OnFire(w.Fire)
		w.WaitThen(cont)
	})
}

// ---------------------------------------------------------------------
// Scenario 1 (Figure 5, arrow 1/2): sequential batch job, submitted
// together with a glide-in agent; queued in the CrossBroker when the
// grid is saturated.
// ---------------------------------------------------------------------

func (b *Broker) runBatch(h *Handle) {
	if h.state == Done || h.state == Failed {
		return
	}
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	job := h.request.Job
	b.matchPass(h, nil, func(cands []candidate) {
		if h.scanned == 0 {
			// Empty registry: nothing to match, now or later.
			b.fail(h, ErrNoMatch)
			return
		}
		if len(cands) == 0 {
			if h.unavailable > 0 {
				// Matching sites exist but are quarantined or unreachable
				// — a transient grid failure, not a requirements mismatch.
				// Hold the job and retry after the backoff.
				h.lastErr = ErrNoResources
				h.state = Pending
				b.scheduleRetry(h)
				return
			}
			b.fail(h, ErrNoMatch)
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
			h.state = Pending
			b.scheduleRetry(h)
			return
		}

		st := chosen.site
		b.cfg.Trace.Emit(b.matchedEvent(h, st.Name(), chosen.rank))
		b.lease(h, st.Name(), job.NodeNumber)
		h.state = Submitted
		h.site = st.Name()
		subStart := b.sim.Now()
		h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })
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
							h.lastErr = err
							b.noteResub(h, st.Name(), "agent launch failed")
							h.state = Pending
							b.scheduleRetry(h)
							return
						}
						b.fail(h, fmt.Errorf("broker: agent launch on %s: %w", st.Name(), err))
						return
					}
					b.noteSiteSuccess(st.Name())
					b.wireAgent(agent, st)

					bh.Started.OnFire(func() {
						b.unlease(h, st.Name(), 1)
						b.account(h, 1)
						h.state = Running
						b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
						// First output of the payload: startup then transfer.
						b.sim.Post(func() {
							b.sim.AfterFunc(st.Costs().JobStartup+st.Network().TransferTime(defaultFirstOutputBytes),
								h.FirstOutput.Fire)
						})
					})

					// Wait for the payload to finish; if the agent is evicted (or
					// the site crashes the queued agent job) first, resubmit ("new
					// agents will be submitted when possible"). bh.Done covers an
					// agent job killed while still queued — its body never ran, so
					// Released alone would wait forever.
					w := b.sim.NewTrigger()
					agent.BatchDone().OnFire(w.Fire)
					agent.Released().OnFire(w.Fire)
					bh.Done.OnFire(w.Fire)
					h.abort.OnFire(w.Fire)
					w.WaitThen(func() {
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
						// Evicted or lost.
						b.release(h)
						h.lastErr = fmt.Errorf("%w: payload on %s unfinished", ErrAgentLost, st.Name())
						b.noteResub(h, st.Name(), "agent lost")
						h.state = Pending
						b.scheduleRetry(h)
						b.kickDispatch()
					})
				})
		})
	})
}

// wireAgent registers a live agent in the broker's local registry and
// hooks fair-share reclassification and availability callbacks.
func (b *Broker) wireAgent(agent *glidein.Agent, st *site.Site) {
	b.agentSites[agent] = st
	b.agents[agent.ID()] = agent
	agent.Ready().OnFire(func() {
		if agent.Free() {
			b.freeAgentAdd(agent, st)
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
		b.freeAgentAdd(agent, st)
		b.kickDispatch()
	}
	agent.OnBusy = func(*glidein.Agent) {
		b.freeAgentRemove(agent)
	}
	agent.Released().OnFire(func() {
		delete(b.agents, agent.ID())
		delete(b.agentSites, agent)
		b.freeAgentRemove(agent)
		b.kickDispatch()
	})
}

// freeAgentAdd records an agent with a free interactive VM in the
// ID-sorted candidate list (no-op if already present).
func (b *Broker) freeAgentAdd(agent *glidein.Agent, st *site.Site) {
	if b.freeSet[agent] {
		return
	}
	if b.freeSet == nil {
		b.freeSet = make(map[*glidein.Agent]bool)
	}
	b.freeSet[agent] = true
	id := agent.ID()
	i := sort.Search(len(b.freeAgents), func(k int) bool { return b.freeAgents[k].agent.ID() >= id })
	b.freeAgents = append(b.freeAgents, agentEntry{})
	copy(b.freeAgents[i+1:], b.freeAgents[i:])
	b.freeAgents[i] = agentEntry{agent, st}
}

// freeAgentRemove drops an agent from the candidate list (no-op if
// absent).
func (b *Broker) freeAgentRemove(agent *glidein.Agent) {
	if !b.freeSet[agent] {
		return
	}
	delete(b.freeSet, agent)
	id := agent.ID()
	i := sort.Search(len(b.freeAgents), func(k int) bool { return b.freeAgents[k].agent.ID() >= id })
	if i < len(b.freeAgents) && b.freeAgents[i].agent == agent {
		b.freeAgents = append(b.freeAgents[:i], b.freeAgents[i+1:]...)
	}
}

// ---------------------------------------------------------------------
// Scenario 2 (Figure 5, arrow 3): interactive job in exclusive mode —
// a free machine through the gatekeeper, with on-line scheduling
// (kill-and-resubmit if the job sits in a remote queue).
// ---------------------------------------------------------------------

func (b *Broker) runInteractiveExclusive(h *Handle) {
	job := h.request.Job
	b.matchPass(h, nil, func(cands []candidate) {
		if len(cands) == 0 {
			b.fail(h, ErrNoMatch)
			return
		}

		subStart := b.sim.Now()
		h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })

		excluded := make(map[string]bool)
		anyFree := false
		var loop func(attempt int)
		loop = func(attempt int) {
			if attempt < len(cands) {
				if h.abort.Fired() {
					b.fail(h, h.abortErr)
					return
				}
				if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
					b.failResubmits(h)
					return
				}
				var chosen *candidate
				for i := range cands {
					if !excluded[cands[i].site.Name()] && cands[i].free >= job.NodeNumber {
						chosen = &cands[i]
						break
					}
				}
				if chosen != nil {
					anyFree = true
					b.cfg.Trace.Emit(b.matchedEvent(h, chosen.site.Name(), chosen.rank))
					b.runExclusiveAttempt(h, chosen.site, func(terminal bool) {
						if terminal {
							return
						}
						excluded[chosen.site.Name()] = true
						loop(attempt + 1)
					})
					return
				}
			}
			if h.abort.Fired() {
				b.fail(h, h.abortErr)
				return
			}
			if !anyFree && !b.admissionOK(h.request.User) {
				b.fail(h, ErrRejected)
				return
			}
			b.fail(h, ErrNoResources)
		}
		loop(0)
	})
}

// runExclusiveAttempt submits the job to one site and enforces the
// on-line scheduling rule. cont receives whether the job reached a
// terminal state there (ran to completion, or was aborted); false
// sends the caller to the next candidate. The lease is released last,
// after the outcome is recorded.
func (b *Broker) runExclusiveAttempt(h *Handle, st *site.Site, cont func(terminal bool)) {
	job := h.request.Job
	b.lease(h, st.Name(), job.NodeNumber)
	done := func(terminal bool) {
		b.unlease(h, st.Name(), job.NodeNumber)
		cont(terminal)
	}
	h.state = Submitted
	b.stageData(h, st.Name(), func() {
		bodyDone := b.sim.NewTrigger()
		killed := b.sim.NewTrigger()
		req := batch.Request{
			ID:       attemptID(h),
			Owner:    h.request.User,
			Nodes:    job.NodeNumber,
			Priority: 10, // interactive jobs ahead of local batch work
			RunCB:    b.exclusiveBody(h, st, bodyDone, killed),
		}
		st.SubmitAsync(req, site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
			if err != nil {
				b.noteSiteFailure(st.Name())
				h.lastErr = err
				b.noteResub(h, st.Name(), "submit failed")
				done(false)
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
					b.noteResub(h, st.Name(), "queue timeout")
					done(false)
					return
				}
				h.state = Running
				h.site = st.Name()
				b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
				b.account(h, job.NodeNumber)

				w := b.sim.NewTrigger()
				bodyDone.OnFire(w.Fire)
				killed.OnFire(w.Fire)
				h.abort.OnFire(w.Fire)
				w.WaitThen(func() {
					// bodyDone also fires when the body stopped because it
					// was killed, so the failure outcomes are checked first.
					switch {
					case h.abort.Fired():
						st.Queue().Kill(bh.ID())
						b.release(h)
						b.fail(h, h.abortErr)
						done(true)
					case killed.Fired():
						// The LRM killed the job under us — the site crashed.
						// The death notification already released the leases and
						// quarantined the site; move on to another candidate.
						b.release(h)
						h.lastErr = fmt.Errorf("%w: %s died running %s", ErrSiteLost, st.Name(), h.ID)
						b.noteResub(h, st.Name(), "site lost")
						done(false)
					default:
						b.release(h)
						b.finish(h)
						done(true)
					}
				})
			})
		})
	})
}

// runExclusiveOn is the gatekeeper-path variant used for parallel
// batch jobs; a site death mid-flight re-queues the job through the
// broker's retry path.
func (b *Broker) runExclusiveOn(h *Handle, st *site.Site) {
	job := h.request.Job
	bodyDone := b.sim.NewTrigger()
	killed := b.sim.NewTrigger()
	req := batch.Request{
		ID:    attemptID(h),
		Owner: h.request.User,
		Nodes: job.NodeNumber,
		RunCB: b.exclusiveBody(h, st, bodyDone, killed),
	}
	st.SubmitAsync(req, site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
		b.unlease(h, st.Name(), job.NodeNumber)
		if err != nil {
			if retryableSubmitErr(err) {
				b.noteSiteFailure(st.Name())
				h.lastErr = err
				b.noteResub(h, st.Name(), "submit failed")
				h.state = Pending
				b.scheduleRetry(h)
				return
			}
			b.fail(h, err)
			return
		}
		b.noteSiteSuccess(st.Name())
		bh.Started.OnFire(func() {
			h.state = Running
			b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
			b.account(h, job.NodeNumber)
		})
		h.site = st.Name()

		// bh.Done without bodyDone means the LRM dropped the job (crash
		// while queued or running) — its body may never have run.
		w := b.sim.NewTrigger()
		bodyDone.OnFire(w.Fire)
		killed.OnFire(w.Fire)
		bh.Done.OnFire(w.Fire)
		h.abort.OnFire(w.Fire)
		w.WaitThen(func() {
			// bodyDone also fires when the body stopped because it was
			// killed, so the failure outcomes must be checked first.
			switch {
			case h.abort.Fired():
				st.Queue().Kill(bh.ID())
				b.release(h)
				b.fail(h, h.abortErr)
			case killed.Fired(), !bodyDone.Fired():
				b.release(h)
				h.lastErr = fmt.Errorf("%w: %s died running %s", ErrSiteLost, st.Name(), h.ID)
				b.noteResub(h, st.Name(), "site lost")
				h.state = Pending
				b.scheduleRetry(h)
			default:
				b.release(h)
				b.finish(h)
			}
		})
	})
}

// exclusiveBody wraps the job body for gatekeeper-path execution, in
// the LRM's RunCB shape: one full-share slot per allocated node,
// startup cost, then the body; fin hands the nodes back to the queue.
// The killed trigger (may be nil) relays the LRM's kill notification
// — fired when the site crashes under the running job — to the
// broker's wait.
func (b *Broker) exclusiveBody(h *Handle, st *site.Site, bodyDone interface{ Fire() }, killed *simclock.Trigger) func(*batch.ExecCtx, func()) {
	return func(ctx *batch.ExecCtx, fin func()) {
		if killed != nil {
			ctx.Killed.OnFire(killed.Fire)
		}
		slots := make([]*vmslot.Slot, len(ctx.Nodes))
		for i, n := range ctx.Nodes {
			slots[i] = n.CPU.NewSlot(h.ID, interactiveTickets)
		}
		b.sim.AfterFunc(st.Costs().JobStartup, func() {
			rc := b.makeRunContext(h, st, slots)
			ctx.Killed.OnFire(rc.Killed.Fire)
			h.abort.OnFire(rc.Killed.Fire)
			b.runBody(h, st, rc, func() {
				for _, s := range slots {
					s.Close()
				}
				bodyDone.Fire()
				fin()
			})
		})
	}
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
				subStart := b.sim.Now()
				h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })
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

			place := func() {
				if len(chosen) < need {
					if !b.admissionOK(h.request.User) {
						b.fail(h, ErrRejected)
						return
					}
					b.fail(h, ErrNoResources)
					return
				}
				b.placeOnAgents(h, chosen, func(terminal bool) {
					if terminal {
						return
					}
					// A hosting agent died mid-run: kill-and-resubmit,
					// bounded by the resubmission budget.
					if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
						b.failResubmits(h)
						return
					}
					attempt()
				})
			}

			if len(chosen) >= need {
				place()
				return
			}
			// Fill the shortfall with fresh agents on idle machines, "in
			// a similar way to the case of a batch job".
			b.matchPass(h, nil, func(cands []candidate) {
				var fillSite func(i int)
				var fillAgent func(i int)
				endSite := func(i int) {
					if len(chosen) == need {
						place()
						return
					}
					fillSite(i + 1)
				}
				fillSite = func(i int) {
					if i >= len(cands) {
						place()
						return
					}
					fillAgent(i)
				}
				fillAgent = func(i int) {
					if !(len(chosen) < need && cands[i].free > 0) {
						endSite(i)
						return
					}
					// No TraceJob: the agent's 2PC is labeled by its own
					// queue ID — several launches may serve one attempt.
					glidein.LaunchAsync(b.sim, cands[i].site, nil, 10,
						glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace},
						func(agent *glidein.Agent, bh *batch.Handle, err error) {
							if err != nil {
								if retryableSubmitErr(err) {
									b.noteSiteFailure(cands[i].site.Name())
								}
								endSite(i)
								return
							}
							b.wireAgent(agent, cands[i].site)
							b.waitTrigger(agent.Ready(), b.cfg.QueueTimeout, func(ready bool) {
								if !ready {
									cands[i].site.Queue().Kill(bh.ID())
									endSite(i)
									return
								}
								cands[i].free--
								for k := 0; k < agent.FreeSlots() && len(chosen) < need; k++ {
									chosen = append(chosen, agent)
								}
								fillAgent(i)
							})
						})
				}
				fillSite(0)
			})
		})
	}
	attempt()
}

// freeAgentsMatching returns free agents whose site satisfies the
// job's Requirements, in randomized order. The ID-sorted candidate
// list is exact — OnFree/OnBusy/Released keep it in step with every
// slot transition — so the scan never polls FreeSlots; a list entry
// IS a free agent (a deterministic base order, then the broker's
// seeded shuffle). It reuses a scratch result buffer: the returned
// slice is only valid until the next call, which is fine because
// callers consume it before yielding to the simulation.
// Requirements are evaluated once per distinct site, not per agent.
// need caps how many leading agents the caller will consume, so only
// that prefix is randomized (a partial Fisher-Yates draws each prefix
// element uniformly from the whole match set, exactly as a full
// shuffle would).
func (b *Broker) freeAgentsMatching(job *jdl.Job, need int) []*glidein.Agent {
	out := b.freeScratch[:0]
	if job.Requirements == nil {
		for _, e := range b.freeAgents {
			out = append(out, e.agent)
		}
	} else {
		if b.reqMemo == nil {
			b.reqMemo = make(map[*site.Site]bool)
		}
		clear(b.reqMemo)
		for _, e := range b.freeAgents {
			ok, seen := b.reqMemo[e.site]
			if !seen {
				v, err := job.Requirements.EvalBool(e.site.Record().MatchAttrs())
				ok = err == nil && v
				b.reqMemo[e.site] = ok
			}
			if ok {
				out = append(out, e.agent)
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
	job := h.request.Job
	// The chosen agents were alive at match time, but filling a
	// shortfall launches fresh agents — virtual time passes, and a
	// previously free agent may have died and been reaped from the
	// registry meanwhile. Treat that like a mid-run death: the caller
	// kills and resubmits under the usual budget.
	for _, a := range agents {
		if b.agentSites[a] == nil {
			cont(false)
			return
		}
	}
	st := b.agentSites[agents[0]]
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
	b.stageData(h, st.Name(), func() {
		b.sim.AfterFunc(st.Costs().Stage+st.Network().RTT()+st.Costs().VMDispatch, func() {
			slots := make([]*vmslot.Slot, len(agents))
			jobDone := b.sim.NewTrigger() // body finished; placeholders release
			var doneTs []*simclock.Trigger
			placed := 0
			allPlaced := b.sim.NewTrigger()

			for i, a := range agents {
				i := i
				done, err := a.StartInteractive(glidein.InteractiveJob{
					ID:              fmt.Sprintf("%s#%d.%d", h.ID, i, h.resub),
					Owner:           h.request.User,
					PerformanceLoss: job.PerformanceLoss,
					RunCB: func(ctx *glidein.InteractiveContext, fin func()) {
						slots[i] = ctx.Slot
						placed++
						if placed == len(agents) {
							allPlaced.Fire()
						}
						jobDone.WaitThen(fin)
					},
				})
				if err != nil {
					// Registry race: someone took the VM. Treat as failure.
					jobDone.Fire()
					b.fail(h, ErrNoResources)
					cont(true)
					return
				}
				doneTs = append(doneTs, done)
			}

			allPlaced.WaitThen(func() {
				h.state = Running
				b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: h.site, Attempt: h.resub})
				b.account(h, len(agents))

				// Heartbeat monitoring: a hosting agent's death is
				// noticed one AgentHeartbeat after the loss.
				lost := b.sim.NewTrigger()
				seen := make(map[*glidein.Agent]bool, len(agents))
				for _, a := range agents {
					if seen[a] {
						continue
					}
					seen[a] = true
					a.Released().OnFire(func() { b.sim.AfterFunc(b.cfg.AgentHeartbeat, lost.Fire) })
				}

				bodyEnd := b.sim.NewTrigger()
				b.sim.Post(func() {
					b.sim.AfterFunc(st.Costs().JobStartup, func() {
						rc := b.makeRunContext(h, st, slots)
						lost.OnFire(rc.Killed.Fire)
						h.abort.OnFire(rc.Killed.Fire)
						b.runBody(h, st, rc, bodyEnd.Fire)
					})
				})

				w := b.sim.NewTrigger()
				bodyEnd.OnFire(w.Fire)
				lost.OnFire(w.Fire)
				h.abort.OnFire(w.Fire)
				w.WaitThen(func() {
					jobDone.Fire() // unwind the VM placeholders on surviving agents
					// bodyEnd also fires when the body stopped because its
					// allocation was lost or aborted, so the failure
					// outcomes are checked first.
					switch {
					case h.abort.Fired():
						b.release(h)
						b.fail(h, h.abortErr)
						cont(true)
					case lost.Fired():
						// Agent lost: release the accounting, report the kill,
						// let the caller resubmit on the surviving registry. The
						// HeartbeatLost event is emitted here, not in the
						// heartbeat callback, so it cannot land after the job's
						// terminal event.
						b.cfg.Trace.Emit(trace.Event{Kind: trace.HeartbeatLost, Job: h.ID, Site: h.site, Attempt: h.resub})
						b.release(h)
						h.lastErr = fmt.Errorf("%w while running %s", ErrAgentLost, h.ID)
						b.noteResub(h, h.site, "agent lost")
						cont(false)
					default:
						var waitDone func(k int)
						waitDone = func(k int) {
							if k == len(doneTs) {
								b.release(h)
								b.finish(h)
								cont(true)
								return
							}
							doneTs[k].WaitThen(func() { waitDone(k + 1) })
						}
						waitDone(0)
					}
				})
			})
		})
	})
}
