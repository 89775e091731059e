// Package site models one grid site of the CrossGrid testbed: a
// gatekeeper front end over a local batch queue of worker nodes
// (Section 3, Figure 1). The gatekeeper charges the Globus-era costs a
// submission pays before the local resource manager even sees the job
// — GSI authentication, jobmanager (GRAM) setup, input-file staging
// and the broker's two-phase commit — which is precisely the overhead
// the multi-programming mechanism bypasses via direct broker->agent
// communication (Table I).
//
// All operations run in virtual time: methods that model remote calls
// charge their costs as timer events on the simulation clock and hand
// the result to a continuation.
package site

import (
	"errors"
	"fmt"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
)

// Failure-model errors. Both mark the submission attempt as failed at
// this site; the broker treats them as retryable elsewhere.
var (
	// ErrSiteDown is returned when the gatekeeper cannot be reached —
	// the site crashed or the network path to it is out.
	ErrSiteDown = errors.New("site: gatekeeper unreachable")
	// ErrCommitAborted is returned when the site dies between the
	// LRM's phase-1 accept and the phase-2 commit acknowledgment: the
	// two-phase commit is aborted and the job does not hold resources.
	ErrCommitAborted = errors.New("site: two-phase commit aborted")
	// ErrGatekeeperTimeout is returned when a submission hangs inside
	// an injected gatekeeper stall window and times out.
	ErrGatekeeperTimeout = errors.New("site: gatekeeper timed out")
)

// Costs are the per-submission overheads of the site's middleware
// stack. Defaults are calibrated to the paper's testbed (Globus 2.4 on
// Pentium III-Xeon class machines, Table I); the reproduction's claim
// is about which path pays which component, not the absolute values.
type Costs struct {
	// Auth is the gatekeeper's GSI authentication cost.
	Auth time.Duration
	// GRAM is the jobmanager setup cost.
	GRAM time.Duration
	// Stage is the input-file staging plus two-phase-commit
	// preparation the CrossBroker performs for every job it submits.
	Stage time.Duration
	// JobStartup is the time from node allocation to the application's
	// first output being ready on the worker node (exec, libraries,
	// Console Agent connect).
	JobStartup time.Duration
	// AgentStage is the extra transfer and startup of the glide-in
	// agent executable when a job is submitted together with an agent.
	AgentStage time.Duration
	// VMDispatch is the agent's cost to set the job up on the
	// interactive virtual machine (fork, environment, slot wiring)
	// when the broker dispatches over its direct channel.
	VMDispatch time.Duration
}

// DefaultCosts returns the Table I calibration.
func DefaultCosts() Costs {
	return Costs{
		Auth:       2500 * time.Millisecond,
		GRAM:       4 * time.Second,
		Stage:      3 * time.Second,
		JobStartup: 2500 * time.Millisecond,
		AgentStage: 12 * time.Second,
		VMDispatch: 1300 * time.Millisecond,
	}
}

// Config describes one site.
type Config struct {
	// Name is the unique site name.
	Name string
	// Nodes is the worker-node count.
	Nodes int
	// Attrs are the matchmaking attributes published to the
	// information system (Arch, OS, MemoryMB, ...).
	Attrs map[string]any
	// Network is the path between the broker/user and this site.
	Network netsim.Profile
	// Costs is the middleware cost model.
	Costs Costs
	// LRMCycle is the local scheduler's pass interval.
	LRMCycle time.Duration
	// PublishInterval is how often the site pushes its record to the
	// information system.
	PublishInterval time.Duration
	// MachineOpts configure each worker node's CPU.
	MachineOpts []vmslot.Option
	// Elastic, when set, gives the local queue a cloud-style on-demand
	// node supply: nodes cold-start up to Elastic.MaxNodes (Nodes is
	// ignored), stay warm for reuse, and are reclaimed when idle. The
	// queue publishes its shape through the Backend/StartupSec
	// attributes.
	Elastic *batch.ElasticConfig
}

// queryCost is the gatekeeper's processing time for a direct
// queue-state query: with ~20 European sites it yields the paper's
// ~3 s selection phase.
const queryCost = 130 * time.Millisecond

// Site is one grid site.
type Site struct {
	sim    *simclock.Sim
	cfg    Config
	lrms   *batch.Queue
	tracer *trace.Tracer
	// gatekeeper is the published gatekeeper address, built once.
	gatekeeper string

	// Failure-model state (driven by internal/faultinject or tests).
	down         bool // crashed: gatekeeper and worker pool dead
	unreachable  bool // network outage: site alive but cut off
	gkStallUntil time.Time
	deathHooks   []func()

	publishing bool // publish loop started (idempotency guard)

	queries     []*query      // free list of probe records (QueryStateAsync)
	submissions []*submission // free list of 2PC records (SubmitAsync)

	// Two-phase-commit accounting (see CommitStats).
	stats    CommitStats
	inflight int // commit windows currently open
}

// CommitStats counts the site's two-phase-commit outcomes. In a
// federation it makes broker contention visible from the site's side:
// MaxInflight > 1 means two submissions raced inside overlapping
// commit windows, and Phase1Rejects counts the losers the LRM turned
// away at phase 1 — the site's commit window is the arbiter, so a
// raced submission either queues (and commits) or is rejected before
// it ever holds capacity; it is never double-counted.
type CommitStats struct {
	// Sent counts phase-1 accepts (commit windows opened).
	Sent int
	// Committed and Aborted count how those windows resolved.
	Committed int
	Aborted   int
	// Phase1Rejects counts submissions the LRM refused outright
	// (queue full — including races lost to a concurrent broker).
	Phase1Rejects int
	// MaxInflight is the peak number of simultaneously open commit
	// windows.
	MaxInflight int
}

// New creates a site with its local resource manager and worker
// nodes: a fixed pool of cfg.Nodes, or an elastic supply when
// cfg.Elastic is set.
func New(sim *simclock.Sim, cfg Config) *Site {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.LRMCycle <= 0 {
		cfg.LRMCycle = 5 * time.Second
	}
	if cfg.PublishInterval <= 0 {
		cfg.PublishInterval = 2 * time.Minute
	}
	if cfg.Attrs == nil {
		cfg.Attrs = map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512}
	}
	var lrms *batch.Queue
	if cfg.Elastic != nil {
		lrms = batch.NewPool(sim, cfg.Name, *cfg.Elastic, cfg.MachineOpts, batch.WithCycle(cfg.LRMCycle))
	} else {
		lrms = batch.NewQueue(sim, cfg.Name, cfg.Nodes, cfg.MachineOpts, batch.WithCycle(cfg.LRMCycle))
	}
	// Publish the backend's shape alongside the user attributes, so
	// compiled Requirements/Rank expressions (and the interactive
	// classifier) can see it. The map is cloned: callers may share
	// attribute maps across sites.
	b := lrms.Backend()
	attrs := make(map[string]any, len(cfg.Attrs)+2)
	for k, v := range cfg.Attrs {
		attrs[k] = v
	}
	if _, ok := attrs[infosys.AttrBackend]; !ok {
		attrs[infosys.AttrBackend] = b.Kind
	}
	if _, ok := attrs[infosys.AttrStartupSec]; !ok {
		attrs[infosys.AttrStartupSec] = b.Startup.Seconds()
	}
	cfg.Attrs = attrs
	return &Site{sim: sim, cfg: cfg, lrms: lrms, gatekeeper: cfg.Name + "/gatekeeper"}
}

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// SetTracer wires the event tracer (nil disables tracing). The broker
// sets it at registration.
func (s *Site) SetTracer(t *trace.Tracer) { s.tracer = t }

// Queue exposes the local resource manager.
func (s *Site) Queue() *batch.Queue { return s.lrms }

// Costs returns the site's cost model.
func (s *Site) Costs() Costs { return s.cfg.Costs }

// Network returns the broker<->site path profile.
func (s *Site) Network() netsim.Profile { return s.cfg.Network }

// QueueSlots returns how many jobs the local queue holds pending before
// the broker considers the site full: twice its capacity.
func (s *Site) QueueSlots() int { return 2 * s.lrms.TotalCPUs() }

// Crash kills the site: the gatekeeper stops answering, every running
// job dies (their bodies observe Killed, evicting glide-in agents),
// pending LRM jobs are dropped, and the registered death hooks fire so
// the broker can reclaim leases and quarantine the site. Idempotent
// until Restart.
func (s *Site) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.tracer.Emit(trace.Event{Kind: trace.SiteCrashed, Site: s.cfg.Name})
	s.lrms.CrashAll()
	for _, fn := range s.deathHooks {
		fn()
	}
}

// Restart brings a crashed site back up with an empty queue and free
// nodes; it resumes publishing on the next tick.
func (s *Site) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.tracer.Emit(trace.Event{Kind: trace.SiteRestarted, Site: s.cfg.Name})
}

// Down reports whether the site is crashed.
func (s *Site) Down() bool { return s.down }

// SetUnreachable cuts (true) or restores (false) the network path to
// the site. Unlike Crash, running jobs keep running — only new
// gatekeeper traffic (submissions, state probes, commit acks) fails.
func (s *Site) SetUnreachable(cut bool) { s.unreachable = cut }

// Available reports whether the gatekeeper can currently be reached.
func (s *Site) Available() bool { return !s.down && !s.unreachable }

// StallGatekeeper makes submissions arriving within the next d hang
// until the window ends and then fail with ErrGatekeeperTimeout (a
// wedged jobmanager). Overlapping stalls extend to the latest end.
func (s *Site) StallGatekeeper(d time.Duration) {
	until := s.sim.Now().Add(d)
	if until.After(s.gkStallUntil) {
		s.gkStallUntil = until
	}
}

// OnDeath registers fn to run (in simulation context) when the site
// crashes. The broker hooks lease reclamation and quarantine here.
func (s *Site) OnDeath(fn func()) { s.deathHooks = append(s.deathHooks, fn) }

// Record builds the site's current information-system record.
func (s *Site) Record() infosys.SiteRecord {
	return infosys.SiteRecord{
		Name:       s.cfg.Name,
		Gatekeeper: s.gatekeeper,
		Attrs:      s.cfg.Attrs,
		TotalCPUs:  s.lrms.TotalCPUs(),
		FreeCPUs:   s.lrms.FreeNodeCount(),
		QueuedJobs: s.lrms.QueueLength(),
	}
}

// Publisher receives the site's periodic record pushes: the
// *infosys.Service the registering broker discovers through.
type Publisher interface {
	Publish(rec infosys.SiteRecord) error
	PublishQueueState(name string, total, free, queued int) bool
}

// StartPublishing pushes the site record to the information service
// now and on every PublishInterval, mirroring GRIS->GIIS registration.
// The site's attributes never change, so a push refreshes only the
// queue state of the record the index holds; the first push, and any
// push after the index dropped the record, is the full record.
// A crashed or partitioned-off site skips its pushes (a dead GRIS),
// so its record goes stale in the index until it comes back.
// Idempotent: when several federated brokers register the same site,
// only the first call starts the loop — there is one GRIS per site,
// however many brokers read the index it feeds.
func (s *Site) StartPublishing(is Publisher) {
	if s.publishing {
		return
	}
	s.publishing = true
	var tick func()
	tick = func() {
		q := s.lrms
		if s.Available() && !is.PublishQueueState(s.cfg.Name, q.TotalCPUs(), q.FreeNodeCount(), q.QueueLength()) {
			is.Publish(s.Record())
		}
		s.sim.AfterFunc(s.cfg.PublishInterval, tick)
	}
	tick()
}

// Stats returns the site's two-phase-commit counters.
func (s *Site) Stats() CommitStats { return s.stats }

// QueryStateAsync is the broker's direct query for up-to-date queue
// information during the selection phase. It costs one network round
// trip plus a small gatekeeper processing delay, charged as one timer
// event; cont receives the answer at that instant. ok is false when
// the gatekeeper could not be reached (the probe still costs its round
// trip — the timeout the broker waited out).
//
// A probe in flight is a query record from the site's free list, whose
// timer callback was bound when the record was made, so a probe costs
// no allocation once the list holds as many records as the site has
// probes in flight.
func (s *Site) QueryStateAsync(cont func(free, queued int, ok bool)) {
	var q *query
	if n := len(s.queries); n > 0 {
		q = s.queries[n-1]
		s.queries = s.queries[:n-1]
	} else {
		q = &query{s: s}
		q.fire = q.answer
	}
	q.cont = cont
	s.sim.AfterFunc(s.cfg.Network.RTT()+queryCost, q.fire)
}

// query is one direct queue-state probe in flight.
type query struct {
	s    *Site
	cont func(free, queued int, ok bool)
	fire func() // q.answer, bound once per record
}

// answer delivers the probe's outcome as the site stands at this
// instant. It takes cont and returns the record to the free list
// first: cont may probe again and reuse it.
func (q *query) answer() {
	s, cont := q.s, q.cont
	q.cont = nil
	s.queries = append(s.queries, q)
	if !s.Available() {
		cont(0, 0, false)
		return
	}
	cont(s.lrms.FreeNodeCount(), s.lrms.QueueLength(), true)
}

// SubmitOptions select which middleware costs a gatekeeper submission
// pays.
type SubmitOptions struct {
	// WithAgent adds the glide-in agent staging cost.
	WithAgent bool
	// TraceJob labels this submission's two-phase-commit trace events
	// with the broker job they serve; empty falls back to the LRM
	// handle ID assigned at phase-1 accept.
	TraceJob string
	// TraceAttempt is the broker job's resubmission index, making the
	// (job, attempt) pair unique per Submit call.
	TraceAttempt int
}

// SubmitAsync pushes a job through the gatekeeper into the local
// queue: staging + two-phase commit at the broker, network transfer,
// GSI authentication and GRAM setup at the gatekeeper, then the LRM
// enqueue — each cost one timer event. cont runs once the job is
// accepted by the LRM (the commit point), with the handle for
// tracking, or with the error that failed the attempt.
//
// Failure model: an unreachable gatekeeper fails the attempt with
// ErrSiteDown after the connection round trip; a site that crashes
// mid-submission fails the phase it was in; a crash or outage between
// the LRM's phase-1 accept and the phase-2 commit acknowledgment
// aborts the two-phase commit — the uncommitted job is withdrawn from
// the LRM (if it still exists) and ErrCommitAborted is returned, so
// the broker's lease release leaves no resources stranded.
//
// A submission that reaches the gatekeeper is a submission record from
// the site's free list, whose one timer callback was bound when the
// record was made, so the chain costs no allocation of its own once
// the list holds as many records as the site has submissions in
// flight.
func (s *Site) SubmitAsync(req batch.Request, opts SubmitOptions, cont func(*batch.Handle, error)) {
	if stall := s.gkStallUntil.Sub(s.sim.Now()); stall > 0 {
		// A wedged jobmanager: the request hangs for the remainder of
		// the stall window, then the broker's submission times out.
		s.sim.AfterFunc(stall, func() {
			cont(nil, fmt.Errorf("%w after %v", ErrGatekeeperTimeout, stall))
		})
		return
	}
	if !s.Available() {
		s.sim.AfterFunc(s.cfg.Network.RTT(), func() { // failed connection attempt
			cont(nil, fmt.Errorf("%w: %s", ErrSiteDown, s.cfg.Name))
		})
		return
	}
	var q *submission
	if n := len(s.submissions); n > 0 {
		q = s.submissions[n-1]
		s.submissions = s.submissions[:n-1]
	} else {
		q = &submission{s: s}
		q.step = q.next
	}
	q.req, q.opts, q.cont = req, opts, cont
	// After staging the request travels to the gatekeeper; two-phase
	// commit costs a second round trip after the LRM accepts.
	q.phase = submitStaged
	s.sim.AfterFunc(s.cfg.Costs.Stage, q.step)
}

// submission is one gatekeeper submission in flight: the request, its
// options and continuation, and after phase 1 the LRM's handle and the
// job the trace events name. step (q.next) walks the chain, one timer
// at a time; phase names what it does next.
type submission struct {
	s     *Site
	req   batch.Request
	opts  SubmitOptions
	cont  func(*batch.Handle, error)
	h     *batch.Handle
	tj    string
	phase submitPhase
	step  func()
}

// submitPhase is the submission step the timer runs next.
type submitPhase uint8

const (
	submitStaged  submitPhase = iota // staged: the request travels to the gatekeeper
	submitArrived                    // at the gatekeeper: GSI auth and GRAM setup
	submitAuthed                     // authenticated: the agent's stage, if any, then phase 1
	submitPhase1                     // the agent is staged: phase 1
	submitAcked                      // the commit acknowledgment arrived
)

// next runs the submission's pending step.
func (q *submission) next() {
	s, c := q.s, q.s.cfg.Costs
	switch q.phase {
	case submitStaged:
		q.phase = submitArrived
		s.sim.AfterFunc(s.cfg.Network.RTT(), q.step)
	case submitArrived:
		if !s.Available() {
			q.end(nil, fmt.Errorf("%w: %s", ErrSiteDown, s.cfg.Name))
			return
		}
		q.phase = submitAuthed
		s.sim.AfterFunc(c.Auth+c.GRAM, q.step)
	case submitAuthed:
		if q.opts.WithAgent {
			q.phase = submitPhase1
			s.sim.AfterFunc(c.AgentStage, q.step)
			return
		}
		q.phase1()
	case submitPhase1:
		q.phase1()
	case submitAcked:
		q.commitAck()
	}
}

// phase1 offers the job to the LRM (phase-1 accept) and opens the
// commit window, which the acknowledgment closes one round trip later.
func (q *submission) phase1() {
	s := q.s
	if !s.Available() {
		q.end(nil, fmt.Errorf("%w: %s", ErrSiteDown, s.cfg.Name))
		return
	}
	h, err := s.lrms.Submit(q.req) // phase-1 accept
	if err != nil {
		s.stats.Phase1Rejects++
		q.end(nil, err)
		return
	}
	tj := q.opts.TraceJob
	if tj == "" {
		tj = h.ID()
	}
	s.stats.Sent++
	s.inflight++
	if s.inflight > s.stats.MaxInflight {
		s.stats.MaxInflight = s.inflight
	}
	s.tracer.Emit(trace.Event{Kind: trace.CommitSent, Job: tj, Site: s.cfg.Name, Attempt: q.opts.TraceAttempt})
	q.h, q.tj, q.phase = h, tj, submitAcked
	s.sim.AfterFunc(s.cfg.Network.RTT(), q.step) // commit acknowledgment
}

// commitAck closes the commit window: committed, or aborted when the
// site died or was cut off inside it.
func (q *submission) commitAck() {
	s, h, tj := q.s, q.h, q.tj
	s.inflight--
	if !s.Available() {
		// Phase 2 never completed: abort. A crash already dropped
		// the job with the rest of the queue; after a mere outage
		// the LRM aborts the uncommitted job when its commit timer
		// expires.
		s.lrms.Kill(q.req.ID)
		if q.req.ID == "" {
			s.lrms.Kill(h.ID())
		}
		s.stats.Aborted++
		s.tracer.Emit(trace.Event{Kind: trace.CommitAborted, Job: tj, Site: s.cfg.Name, Attempt: q.opts.TraceAttempt})
		q.end(nil, fmt.Errorf("%w: %s died before commit", ErrCommitAborted, s.cfg.Name))
		return
	}
	s.stats.Committed++
	s.tracer.Emit(trace.Event{Kind: trace.Committed, Job: tj, Site: s.cfg.Name, Attempt: q.opts.TraceAttempt})
	q.end(h, nil)
}

// end delivers the submission's outcome. Every step ran, so nothing
// reaches the record any more: it returns to the site's free list
// before cont runs, since cont may submit again and take it.
func (q *submission) end(h *batch.Handle, err error) {
	s, cont := q.s, q.cont
	q.req, q.opts, q.cont, q.h, q.tj = batch.Request{}, SubmitOptions{}, nil, nil, ""
	s.submissions = append(s.submissions, q)
	cont(h, err)
}
