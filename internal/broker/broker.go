// Package broker implements the CrossBroker (Sections 3 and 5): the
// resource-management service that schedules batch and interactive
// jobs onto grid sites, with the interactive-oriented mechanisms the
// paper adds to an otherwise batch-oriented brokering system:
//
//   - On-line scheduling: an interactive job that enters a remote
//     queue instead of starting immediately is killed and resubmitted
//     to another available resource.
//   - Exclusive temporal access: a matched resource is leased for a
//     configurable window so concurrent matchmaking passes do not
//     hand the same machine to two applications.
//   - Randomized selection among equally ranked resources.
//   - Fair-share user priorities (internal/fairshare) with
//     application factors that make interactive jobs cost more and
//     compensate yielded batch jobs; users with worse priority are
//     rejected when resources are insufficient.
//   - Job multi-programming via glide-in agents (internal/glidein):
//     the broker keeps a local registry of agents, so placing an
//     interactive job on a free interactive VM skips discovery,
//     selection, the gatekeeper and the local queue entirely.
//
// The broker runs in virtual time on a simclock.Sim; every submission
// becomes a chain of simulation events whose phase timestamps
// (discovery, selection, submission-to-first-output) are recorded on
// the Handle, which is how the Table I benchmark extracts its rows.
package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/glidein"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
)

// Submission outcomes.
var (
	// ErrNoResources means no machine (with or without agent) can run
	// the job now; interactive submissions fail with it, per Section
	// 5.2.
	ErrNoResources = errors.New("broker: no resources available")
	// ErrRejected means the user's fair-share priority was too poor
	// for the current contention.
	ErrRejected = errors.New("broker: rejected by fair-share policy")
	// ErrNoMatch means no registered site satisfies the job's
	// Requirements.
	ErrNoMatch = errors.New("broker: no site matches job requirements")
	// ErrMaxResubmits means the job exhausted Config.MaxResubmits
	// recovery attempts; the terminal error wraps it and reports the
	// last attempt's failure.
	ErrMaxResubmits = errors.New("broker: resubmission limit reached")
	// ErrAborted means the job was killed through Broker.Abort (the
	// console's give-up path, or an operator).
	ErrAborted = errors.New("broker: job aborted")
	// ErrSiteLost means the site executing the job died mid-run.
	ErrSiteLost = errors.New("broker: executing site lost")
	// ErrAgentLost means the glide-in agent hosting the job died or
	// was evicted.
	ErrAgentLost = errors.New("broker: glide-in agent lost")
)

// FairShare is the fair-share policy surface the broker needs.
// *fairshare.Manager implements it; tests substitute fakes.
type FairShare interface {
	// Priority returns the user's current priority (lower is better).
	Priority(name string) float64
	// Allocate charges a started job to its user.
	Allocate(jobID, userName string, cpus int, class fairshare.Class, pl int) error
	// Reclass moves a running job to another accounting class.
	Reclass(jobID string, class fairshare.Class, pl int) error
	// Release ends a job's accounting.
	Release(jobID string)
	// SetTotal declares the grid's total CPU count.
	SetTotal(cpus int)
}

// Directory is the broker's window onto the information system:
// the shared *infosys.Service, or a per-broker *infosys.View in a
// federation (a split-brain freezes each broker's view
// independently). A discovery query is the latency, charged by the
// broker as one timer event, followed by the read at that instant.
type Directory interface {
	// QueryLatency is the cost of one discovery query.
	QueryLatency() time.Duration
	// DiscoverImmediate starts a paged traversal as of now.
	DiscoverImmediate(pageSize int) *infosys.Cursor
	// Publish lands a site record in the shared registry.
	Publish(rec infosys.SiteRecord) error
	// Remove deletes a site record from the shared registry.
	Remove(name string)
}

// agentRegistryCost models the (local) combined discovery+selection
// step for shared-mode interactive jobs.
const agentRegistryCost = 50 * time.Millisecond

// Config parametrizes the broker.
type Config struct {
	// Sim is the simulation clock everything runs on.
	Sim *simclock.Sim
	// Name identifies this broker in a federation; it prefixes job IDs
	// so two brokers' submissions never collide in a merged trace.
	// Empty — the single-broker default — keeps the classic "cb" prefix.
	Name string
	// Info is the information system used for resource discovery.
	Info Directory
	// Fair is the fair-share policy; nil disables accounting.
	Fair FairShare
	// Seed drives randomized resource selection.
	Seed int64
	// Deterministic disables the randomized tie-break, keeping
	// candidates in information-system order (for the ablation that
	// shows why the paper randomizes).
	Deterministic bool
	// LeaseDuration is the exclusive-temporal-access window per
	// matched CPU (default 30 s).
	LeaseDuration time.Duration
	// LeaseJitter spreads each lease's expiry by a seeded random
	// fraction in [0, LeaseJitter) of LeaseDuration, so federated
	// brokers whose leases were acquired in the same tick do not all
	// re-probe the grid at the same instant (synchronized probe
	// storms). Default 0: exact expiries, preserving the single-broker
	// rng stream.
	LeaseJitter float64
	// QueueTimeout is how long an interactive job may sit in a remote
	// queue before the broker kills and resubmits it (default 10 s).
	QueueTimeout time.Duration
	// RetryInterval is the broker-queue dispatch period for waiting
	// batch jobs (default 30 s).
	RetryInterval time.Duration
	// RejectAbove is the fair-share priority ceiling: when resources
	// are insufficient, users with priority above it are rejected.
	// Zero means no ceiling.
	RejectAbove float64
	// AgentDegree is the multiprogramming degree of launched agents:
	// the number of interactive VMs each creates (default 1, the
	// paper's two-VM configuration; Section 5.2 discusses larger
	// degrees as an extension).
	AgentDegree int
	// ProbeWidth bounds how many direct site-state probes the
	// selection phase runs concurrently. 0 or 1 (the default) probes
	// sites one after another, reproducing the paper's serial
	// selection cost (~3 s for 20 sites, Table I); a larger width
	// fans the probes out across that many concurrent workers so the
	// selection time approaches the maximum site round trip; negative
	// probes every site at once.
	ProbeWidth int
	// MaxResubmits bounds failure-driven resubmissions per job
	// (queue-timeout kills, site deaths mid-run, agent losses, failed
	// gatekeeper submissions). 0 means unlimited — the paper's
	// behavior. When the budget is exhausted the job fails terminally
	// with an error wrapping ErrMaxResubmits and the last attempt's
	// failure, so the outcome says why the grid gave up.
	MaxResubmits int
	// RetryBackoff multiplies the broker-queue dispatch delay after
	// every re-queue of the same job (capped exponential backoff).
	// The default 1 keeps the fixed RetryInterval pacing; chaos-prone
	// deployments set 2.
	RetryBackoff float64
	// RetryMaxInterval caps the backed-off retry delay (default
	// 16×RetryInterval).
	RetryMaxInterval time.Duration
	// RetryJitter adds a seeded random fraction in [0, RetryJitter)
	// of the delay to each retry, desynchronizing resubmission storms
	// when a site recovers. Default 0 (deterministic pacing).
	RetryJitter float64
	// QuarantineThreshold is the consecutive-failure count after
	// which a site is excluded from matchmaking (circuit breaker;
	// default 3). After QuarantineCooldown the site is probed again:
	// one success resets it, one more failure re-trips immediately.
	// Negative disables quarantine.
	QuarantineThreshold int
	// QuarantineCooldown is how long a quarantined site stays
	// excluded before the broker probes it back in (default 5 min).
	QuarantineCooldown time.Duration
	// AgentHeartbeat is the glide-in failure-detection latency: the
	// broker notices a dead agent one heartbeat after the loss and
	// kill-and-resubmits the hosted interactive job (default 10 s).
	AgentHeartbeat time.Duration
	// PageSize bounds how many registry records one discovery page
	// carries: matchmaking streams the information system page by
	// page instead of materializing one flat snapshot of every site.
	// 0 or less (the default) uses infosys.DefaultPageSize.
	PageSize int
	// TopK bounds the candidate set a matchmaking pass keeps: only the
	// K best sites by published-state rank are held, probed and
	// re-ranked, so per-pass memory is O(PageSize + TopK) no matter how
	// many sites match. 0 (the default) keeps every match.
	TopK int
	// Incremental selects how the broker reads the registry — a
	// property of the modelled deployment, like
	// core.IndexSpec.ShardLink, not a match algorithm. Instead of
	// fetching every record each pass, the broker mirrors the
	// registry by polling per-shard epoch deltas
	// (infosys.DeltaSource, which Info must implement), so
	// discovery's wire cost is proportional to churn instead of grid
	// size. Selection is the same scan, over the mirror; TopK and
	// the probe/rank pipeline behave exactly as after a discovery
	// query.
	Incremental bool
	// Data is the grid's replica catalog. When set, jobs with
	// InputData pay their real staging transfers before submission
	// whether or not the broker plans around them.
	Data *datacat.Catalog
	// DataAware folds the estimated staging time of a job's InputData
	// into matchmaking: rank becomes compute rank minus staging
	// seconds, and sites that cannot obtain a dataset at all are
	// excluded like a failing Requirements clause. Off — the default —
	// the broker is data-blind and ranks exactly as before, even with
	// a catalog configured (the ablation the dataaware experiment
	// measures). With no catalog, or for jobs without InputData, both
	// settings are byte-identical to the pre-data rank paths.
	DataAware bool
	// Trace records per-job lifecycle events (internal/trace). Nil —
	// the default — disables tracing; instrumented paths then pay one
	// nil check per potential event.
	Trace *trace.Tracer
}

func (c *Config) setDefaults() {
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 30 * time.Second
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 30 * time.Second
	}
	if c.AgentDegree <= 0 {
		c.AgentDegree = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 1
	}
	if c.RetryMaxInterval <= 0 {
		c.RetryMaxInterval = 16 * c.RetryInterval
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = 5 * time.Minute
	}
	if c.AgentHeartbeat <= 0 {
		c.AgentHeartbeat = 10 * time.Second
	}
}

// State is a submission's lifecycle state.
type State int

// Submission states.
const (
	Pending State = iota
	Matching
	Submitted
	Running
	Done
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Matching:
		return "matching"
	case Submitted:
		return "submitted"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Phases records the duration of each Table I step.
type Phases struct {
	// Discovery is the information-system query time.
	Discovery time.Duration
	// Selection is the site filtering/ranking time, including direct
	// site queries.
	Selection time.Duration
	// Submission is the response time: from final submission to the
	// first output arriving at the user machine.
	Submission time.Duration
}

// RunContext is passed to a job body.
type RunContext struct {
	// Sim is the simulation clock.
	Sim *simclock.Sim
	// Slots are the CPU slots allocated to the job, one per node.
	Slots []*vmslot.Slot
	// Output models sending n bytes of output to the user machine: it
	// sleeps the transfer time and fires the handle's FirstOutput on
	// first use.
	Output func(n int)
	// Input models reading n bytes forwarded from the user machine
	// (one round trip of latency).
	Input func(n int)
	// Killed fires if the allocation is torn down under the body (the
	// LRM killed the job, a hosting agent died, or the submission was
	// aborted). The default body stops burning CPU when it fires;
	// custom bodies should honour it the same way.
	Killed *simclock.Trigger
}

// Body is a job's execution body, run as a simulation process once
// per job (not per node): it may block on rc.Output, rc.Input, slot
// runs, Sleep and Wait.
type Body func(rc *RunContext)

// Request is a submission to the broker.
type Request struct {
	// Job is the parsed job description.
	Job *jdl.Job
	// User is the submitting identity (from the GSI credential).
	User string
	// CPU is the per-node CPU demand used by the default body (and by
	// batch payloads).
	CPU time.Duration
	// Body optionally replaces the default job body (interactive
	// jobs); it runs once the job's nodes are allocated.
	Body Body
}

// Handle tracks one submission.
type Handle struct {
	// ID is the broker-assigned job identifier.
	ID string
	// Phases holds the measured phase durations.
	Phases Phases
	// FirstOutput fires when the job's first output reaches the user.
	FirstOutput *simclock.Trigger
	// Done fires when the job finishes (successfully or not).
	Done *simclock.Trigger

	state   State
	err     error
	site    string
	shared  bool
	resub   int
	request Request

	// abort fires when Broker.Abort kills the submission; every wait
	// point of the scheduling flow races against it.
	abort    *simclock.Trigger
	abortErr error
	// lastErr remembers the most recent attempt's failure so a
	// terminal MaxResubmits abort can surface why the grid gave up.
	lastErr error
	// backoffs counts broker-queue re-queues, driving the capped
	// exponential dispatch backoff.
	backoffs int
	// unavailable counts sites the last selection pass skipped
	// because they were quarantined or failed their direct probe —
	// distinguishing "nothing matches" from "matches are all down".
	unavailable int
	// scanned counts the registry records the last pass enumerated
	// (zero means an empty registry, the ErrNoMatch fast-fail); peak
	// is the most candidates the pass held at once — bounded by
	// Config.TopK when the streamed pass prunes with a rank heap.
	scanned int
	peak    int
	// Incremental-path bookkeeping for the last pass: the global
	// epoch the deciding delta poll caught up to, when the poll
	// started, and how many deltas / shard re-pins it applied.
	matchEpoch uint64
	polledAt   time.Time
	deltas     int
	repins     int

	submittedAt time.Time
	finishedAt  time.Time
}

// State returns the current lifecycle state.
func (h *Handle) State() State { return h.state }

// Err returns the failure cause once the handle is Failed.
func (h *Handle) Err() error { return h.err }

// Site returns the name of the site the job ran on (or "agents" for a
// multi-agent shared placement).
func (h *Handle) Site() string { return h.site }

// Shared reports whether the job ran on an interactive VM.
func (h *Handle) Shared() bool { return h.shared }

// Resubmissions reports how many times on-line scheduling moved the
// job.
func (h *Handle) Resubmissions() int { return h.resub }

// SubmittedAt returns the virtual time the job entered the broker.
func (h *Handle) SubmittedAt() time.Time { return h.submittedAt }

// FinishedAt returns the virtual time the job reached Done or Failed
// (zero while in flight).
func (h *Handle) FinishedAt() time.Time { return h.finishedAt }

// Turnaround is the total virtual time from submission to completion
// (zero while in flight).
func (h *Handle) Turnaround() time.Duration {
	if h.finishedAt.IsZero() {
		return 0
	}
	return h.finishedAt.Sub(h.submittedAt)
}

// Broker is the CrossBroker.
type Broker struct {
	cfg Config
	sim *simclock.Sim
	rng *rand.Rand

	sites      map[string]*site.Site
	agents     map[string]*glidein.Agent
	agentSites map[*glidein.Agent]*site.Site
	leases     map[string]*leaseQueue // site -> lease expiry batches
	health     map[string]*siteHealth // site -> circuit-breaker state

	// scan is the matchmaking-pass index: one lookup resolves a
	// published record's registered site and its breaker state
	// together. The page scan visits every published record on every
	// pass, so the separate sites/health hashes it replaces were the
	// dominant matchmaking cost on large grids. Maintained by
	// RegisterSite/UnregisterSite and healthFor.
	scan map[string]scanEntry

	// freeAgents tracks agents with a free interactive VM, sorted by
	// agent ID. The list is exact: agents enter when they become
	// ready or a VM frees up (OnFree) and leave when the last VM is
	// taken (OnBusy) or on release, so an interactive submission
	// scans only true candidates without polling FreeSlots — the old
	// registry-wide scan was the dominant per-job cost on large
	// grids, and the lazy busy-eviction walk that replaced it still
	// paid a pointer-chasing Free() check per entry.
	// freeSet is the membership index; freeScratch and reqMemo are
	// per-call scratch storage for freeAgentsMatching.
	freeAgents  []agentEntry
	freeSet     map[*glidein.Agent]bool
	freeScratch []*glidein.Agent
	reqMemo     map[*site.Site]bool
	taskPool    [][]probeTask // recycled matchmaking scratch, see getTasks

	// lastSnap keeps the previous discovery snapshot when running
	// without an information service, so schema pointers (and the
	// jobs' compiled-predicate caches) stay stable across passes.
	lastSnap *infosys.Snapshot

	pendingBatch []*Handle
	seq          int
	dispatching  bool

	// offloader is the federation's queue-pressure hook (SetOffloader);
	// nil outside a federation.
	offloader func(h *Handle) bool

	// sub is the delta-subscription mirror (incremental.go); non-nil
	// only when Config.Incremental is set.
	sub *subscriber

	// matchOracle, when set, replaces the match pipeline. Only
	// oracle_test.go sets it, to run whole scheduling scenarios on the
	// naive whole-snapshot reference.
	matchOracle func(h *Handle, excluded map[string]bool, cont func([]candidate))
}

// agentEntry pairs a registered agent with its hosting site in the
// sorted registry slice.
type agentEntry struct {
	agent *glidein.Agent
	site  *site.Site
}

// scanEntry is one site's slot in the matchmaking scan index. hl is
// the same pointer held in the health map (nil until the breaker
// records its first interaction).
type scanEntry struct {
	st *site.Site
	hl *siteHealth
}

// New creates a broker.
func New(cfg Config) *Broker {
	cfg.setDefaults()
	if cfg.Sim == nil {
		panic("broker: Config.Sim is required")
	}
	b := &Broker{
		cfg:        cfg,
		sim:        cfg.Sim,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		sites:      make(map[string]*site.Site),
		agents:     make(map[string]*glidein.Agent),
		agentSites: make(map[*glidein.Agent]*site.Site),
		leases:     make(map[string]*leaseQueue),
		health:     make(map[string]*siteHealth),
		scan:       make(map[string]scanEntry),
	}
	if cfg.Incremental {
		src, ok := cfg.Info.(infosys.DeltaSource)
		if !ok {
			panic("broker: Config.Incremental requires an Info that serves delta subscriptions (infosys.Service or View)")
		}
		b.sub = newSubscriber(b, src)
	}
	return b
}

// RegisterSite makes a site available for scheduling and starts its
// information-system publishing. A crash notification from the site
// immediately releases every lease held against it (so matchmaking
// capacity recovers without waiting for natural expiry) and
// quarantines it.
func (b *Broker) RegisterSite(st *site.Site) {
	b.sites[st.Name()] = st
	name := st.Name()
	b.scan[name] = scanEntry{st: st, hl: b.health[name]}
	st.SetTracer(b.cfg.Trace)
	st.OnDeath(func() {
		b.releaseSiteLeases(name)
		b.quarantineNow(name)
		b.kickDispatch()
	})
	if b.cfg.Info != nil {
		st.StartPublishing(b.cfg.Info)
	}
	if b.cfg.Fair != nil {
		total := 0
		for _, s := range b.sites {
			total += s.Queue().TotalCPUs()
		}
		b.cfg.Fair.SetTotal(total)
	}
}

// UnregisterSite removes a site from scheduling (decommissioned, or
// declared dead by monitoring): its information-system record is
// withdrawn and every lease held against it released immediately.
func (b *Broker) UnregisterSite(name string) {
	if _, ok := b.sites[name]; !ok {
		return
	}
	delete(b.sites, name)
	delete(b.scan, name)
	if b.cfg.Info != nil {
		b.cfg.Info.Remove(name)
	}
	b.releaseSiteLeases(name)
	if b.cfg.Fair != nil {
		total := 0
		for _, s := range b.sites {
			total += s.Queue().TotalCPUs()
		}
		b.cfg.Fair.SetTotal(total)
	}
	b.kickDispatch()
}

// FreeAgents reports how many registered agents have a free
// interactive VM.
func (b *Broker) FreeAgents() int {
	n := 0
	for _, a := range b.agents {
		if a.Free() {
			n++
		}
	}
	return n
}

// FreeInteractiveVMs reports the total free interactive VM count
// across registered agents (differs from FreeAgents when the
// multiprogramming degree exceeds one).
func (b *Broker) FreeInteractiveVMs() int {
	n := 0
	for _, a := range b.agents {
		n += a.FreeSlots()
	}
	return n
}

// PendingBatch reports broker-queued batch jobs waiting for resources.
func (b *Broker) PendingBatch() int { return len(b.pendingBatch) }

// Submit schedules a job. It may be called from any context; the
// flow starts in its own event at the current instant. The returned
// handle's triggers report progress.
func (b *Broker) Submit(req Request) (*Handle, error) {
	if req.Job == nil {
		return nil, fmt.Errorf("broker: request without job")
	}
	if err := req.Job.Validate(); err != nil {
		return nil, err
	}
	if req.User == "" {
		req.User = "anonymous"
	}
	b.seq++
	prefix := b.cfg.Name
	if prefix == "" {
		prefix = "cb"
	}
	h := &Handle{
		ID:          fmt.Sprintf("%s-%06d", prefix, b.seq),
		FirstOutput: b.sim.NewTrigger(),
		Done:        b.sim.NewTrigger(),
		state:       Pending,
		request:     req,
		abort:       b.sim.NewTrigger(),
		submittedAt: b.sim.Now(),
	}
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Submitted, Job: h.ID, Detail: jobClass(req.Job)})
	b.sim.Post(func() { b.route(h) })
	return h, nil
}

// SubmitTransferred adopts a job shipped from a peer broker. The
// handle keeps the origin-assigned ID and resubmission count, so the
// merged federation trace stays monotone per job, and no Submitted
// event is emitted — the origin already emitted it, and the checker
// requires exactly one lifecycle per ID. The caller (the federation
// transfer protocol) guarantees at most one broker routes the job at
// a time.
func (b *Broker) SubmitTransferred(req Request, id string, attempt int) (*Handle, error) {
	if req.Job == nil {
		return nil, fmt.Errorf("broker: request without job")
	}
	if err := req.Job.Validate(); err != nil {
		return nil, err
	}
	if req.User == "" {
		req.User = "anonymous"
	}
	h := &Handle{
		ID:          id,
		FirstOutput: b.sim.NewTrigger(),
		Done:        b.sim.NewTrigger(),
		state:       Pending,
		request:     req,
		resub:       attempt,
		abort:       b.sim.NewTrigger(),
		submittedAt: b.sim.Now(),
	}
	b.sim.Post(func() { b.route(h) })
	return h, nil
}

// SetOffloader installs the federation's queue-pressure hook: it is
// consulted whenever a batch job is about to be parked in the broker
// queue, and returning true means the job was shipped to a peer and
// this broker no longer owns it. Nil (the default) disables
// offloading.
func (b *Broker) SetOffloader(fn func(h *Handle) bool) { b.offloader = fn }

// WithdrawQueued removes a job from the broker queue if it is still
// parked there, reporting whether it was. The federation's orphan
// reclaim uses it as the ownership test on a dead peer: a withdrawn
// job provably never reached a site, so the origin may resubmit it
// without risking double execution; a job not in the queue is being
// (or was) scheduled and must ride out the crash where it is.
func (b *Broker) WithdrawQueued(h *Handle) bool {
	for i, q := range b.pendingBatch {
		if q == h {
			b.pendingBatch = append(b.pendingBatch[:i], b.pendingBatch[i+1:]...)
			return true
		}
	}
	return false
}

// Requeue parks a job back in the broker queue (a federation transfer
// that could not be delivered returns home through it).
func (b *Broker) Requeue(h *Handle) {
	if h.state == Done || h.state == Failed {
		return
	}
	b.pendingBatch = append(b.pendingBatch, h)
	b.sim.AfterFunc(b.retryDelay(h.backoffs), b.kickDispatch)
	h.backoffs++
}

// Request returns the submission the handle tracks (federation
// transfers re-submit it at the receiving broker).
func (h *Handle) Request() Request { return h.request }

// jobClass names the scheduling path a job will take (trace detail).
func jobClass(job *jdl.Job) string {
	switch {
	case !job.Interactive:
		return "batch"
	case job.Access == jdl.SharedAccess:
		return "interactive-shared"
	default:
		return "interactive-exclusive"
	}
}

// Abort kills a submission from outside the scheduling flow — the
// console's give-up path when a reliable link exhausts its retry
// budget, or an operator. The job transitions to Failed with the
// given reason (ErrAborted if nil) as soon as the owning scheduling
// flow observes the abort; a job waiting in the broker queue is
// dropped at its next dispatch.
func (b *Broker) Abort(h *Handle, reason error) {
	if h.state == Done || h.state == Failed || h.abort.Fired() {
		return
	}
	if reason == nil {
		reason = ErrAborted
	}
	h.abortErr = reason
	h.abort.Fire()
}

// route picks the scheduling path per job type (Figure 5).
func (b *Broker) route(h *Handle) {
	job := h.request.Job
	switch {
	case !job.Interactive:
		b.runBatch(h)
	case job.Access == jdl.SharedAccess:
		b.runInteractiveShared(h)
	default:
		b.runInteractiveExclusive(h)
	}
}

func (b *Broker) fail(h *Handle, err error) {
	if h.state == Done || h.state == Failed {
		return
	}
	h.state = Failed
	h.err = err
	h.finishedAt = b.sim.Now()
	kind := trace.Failed
	if errors.Is(err, ErrAborted) || (h.abort.Fired() && err == h.abortErr) {
		kind = trace.Aborted
	}
	b.cfg.Trace.Emit(trace.Event{Kind: kind, Job: h.ID, Site: h.site, Attempt: h.resub, Detail: err.Error()})
	h.Done.Fire()
}

func (b *Broker) finish(h *Handle) {
	if h.state == Done || h.state == Failed {
		return
	}
	h.state = Done
	h.finishedAt = b.sim.Now()
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Done, Job: h.ID, Site: h.site, Attempt: h.resub})
	h.Done.Fire()
	b.kickDispatch()
}

// matchedEvent builds a Matched trace event for h's current attempt.
// On the incremental path it stamps the global epoch the deciding
// delta poll caught up to and the time elapsed since that poll — the
// freshness evidence the trace checker's staleness invariant audits;
// both fields stay zero (omitted from exports) on the other paths.
func (b *Broker) matchedEvent(h *Handle, site string, rank float64) trace.Event {
	ev := trace.Event{Kind: trace.Matched, Job: h.ID, Site: site, Rank: rank, Attempt: h.resub}
	if h.matchEpoch > 0 {
		ev.Epoch = h.matchEpoch
		ev.Dur = b.sim.Now().Sub(h.polledAt)
	}
	return ev
}

// noteResub advances a job's attempt counter after a failed attempt at
// siteName, emitting the Resubmitted trace event with the failure
// reason.
func (b *Broker) noteResub(h *Handle, siteName, reason string) {
	h.resub++
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Resubmitted, Job: h.ID, Site: siteName, Attempt: h.resub, Detail: reason})
}

// failResubmits terminally aborts a job whose recovery budget is
// spent, surfacing the last attempt's failure in the outcome.
func (b *Broker) failResubmits(h *Handle) {
	err := fmt.Errorf("%w (%d resubmissions)", ErrMaxResubmits, h.resub)
	if h.lastErr != nil {
		err = fmt.Errorf("%w (%d resubmissions): %v", ErrMaxResubmits, h.resub, h.lastErr)
	}
	b.fail(h, err)
}

// ---------------------------------------------------------------------
// Dead-site quarantine: a circuit breaker per site. Consecutive
// failures (failed submissions, unreachable probes, crash
// notifications) trip it; while tripped the site is excluded from
// matchmaking; after the cool-down the next pass probes it again —
// one success resets the breaker, one more failure re-trips it.
// ---------------------------------------------------------------------

type siteHealth struct {
	fails            int
	quarantinedUntil time.Time
	// probing gates the half-open state to one probe in flight: the
	// pass about to probe the site back sets it (claimHalfOpen),
	// concurrent passes keep treating the site as quarantined until the
	// probe resolves.
	probing bool
	// trippedAt and lastSuccess are the evidence federation
	// reconciliation compares: a peer whose success on the site is
	// newer than this broker's trip refutes the quarantine.
	trippedAt   time.Time
	lastSuccess time.Time
}

// healthFor returns the site's breaker state, creating it on first
// use and mirroring the new pointer into the scan index so the
// matchmaking pass resolves it without a second map hit.
func (b *Broker) healthFor(name string) *siteHealth {
	hl := b.health[name]
	if hl == nil {
		hl = &siteHealth{}
		b.health[name] = hl
		if ent, ok := b.scan[name]; ok {
			ent.hl = hl
			b.scan[name] = ent
		}
	}
	return hl
}

// noteSiteFailure records a failed interaction with a site, tripping
// the circuit breaker at QuarantineThreshold consecutive failures.
func (b *Broker) noteSiteFailure(name string) {
	if b.cfg.QuarantineThreshold < 0 {
		return
	}
	hl := b.healthFor(name)
	hl.fails++
	hl.probing = false
	if hl.fails >= b.cfg.QuarantineThreshold {
		if !b.sim.Now().Before(hl.quarantinedUntil) {
			b.cfg.Trace.Emit(trace.Event{Kind: trace.Quarantined, Site: name, N: hl.fails})
		}
		hl.trippedAt = b.sim.Now()
		hl.quarantinedUntil = b.sim.Now().Add(b.cfg.QuarantineCooldown)
	}
}

// noteSiteSuccess resets a site's circuit breaker and records the
// success as reconciliation evidence.
func (b *Broker) noteSiteSuccess(name string) {
	hl := b.healthFor(name)
	if !hl.quarantinedUntil.IsZero() {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.Unquarantined, Site: name})
	}
	hl.fails = 0
	hl.quarantinedUntil = time.Time{}
	hl.probing = false
	hl.lastSuccess = b.sim.Now()
}

// noteProbeAnswered releases the half-open gate after a direct probe
// was answered, without resetting the breaker's failure count — only
// a successful submission (noteSiteSuccess) does that. The answer is
// still recorded as liveness evidence for reconciliation.
func (b *Broker) noteProbeAnswered(name string) {
	if hl := b.health[name]; hl != nil {
		hl.probing = false
		hl.lastSuccess = b.sim.Now()
	}
}

// quarantineNow trips a site's breaker immediately (crash
// notification — no need to accumulate failures).
func (b *Broker) quarantineNow(name string) {
	if b.cfg.QuarantineThreshold < 0 {
		return
	}
	hl := b.healthFor(name)
	if hl.fails < b.cfg.QuarantineThreshold {
		hl.fails = b.cfg.QuarantineThreshold
	}
	if !b.sim.Now().Before(hl.quarantinedUntil) {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.Quarantined, Site: name, N: hl.fails})
	}
	hl.probing = false
	hl.trippedAt = b.sim.Now()
	hl.quarantinedUntil = b.sim.Now().Add(b.cfg.QuarantineCooldown)
}

// breakerOpen is the admit stage's filter over quarantine state, a pure
// read: a site is excluded while its breaker is inside the cooldown,
// or half-open with its one probe-back in flight.
func breakerOpen(hl *siteHealth, now time.Time) bool {
	return hl != nil && (now.Before(hl.quarantinedUntil) || hl.probing)
}

// claimHalfOpen takes the half-open gate for a site a pass is about to
// probe: if the breaker is tripped and cooled down, this probe is the
// probe-back, and until it is answered or fails (noteProbeAnswered,
// noteSiteFailure) concurrent passes — even in the same tick — keep
// the site excluded, so a tentatively readmitted site sees exactly one
// probe in flight. The claim is taken here, for a site that will be
// probed, and not by the filter: a claim taken for a site that then
// failed Requirements or fell out of the top K was never released.
func (b *Broker) claimHalfOpen(name string) {
	hl := b.health[name]
	if hl != nil && b.cfg.QuarantineThreshold > 0 && hl.fails >= b.cfg.QuarantineThreshold && !hl.quarantinedUntil.IsZero() {
		hl.probing = true
	}
}

// HealthEvidence is the per-site circuit-breaker evidence a broker
// exposes to federation reconciliation.
type HealthEvidence struct {
	// Fails is the consecutive-failure count.
	Fails int
	// Quarantined reports whether the breaker currently excludes the
	// site.
	Quarantined bool
	// TrippedAt is when the breaker last tripped (zero if never).
	TrippedAt time.Time
	// LastSuccess is the newest successful interaction — submission or
	// answered probe (zero if none recorded).
	LastSuccess time.Time
}

// SiteEvidence returns the broker's breaker evidence for a site; ok is
// false when the broker holds no health state for it (no failures and
// no recorded successes).
func (b *Broker) SiteEvidence(name string) (HealthEvidence, bool) {
	hl := b.health[name]
	if hl == nil {
		return HealthEvidence{}, false
	}
	return HealthEvidence{
		Fails:       hl.fails,
		Quarantined: b.sim.Now().Before(hl.quarantinedUntil),
		TrippedAt:   hl.trippedAt,
		LastSuccess: hl.lastSuccess,
	}, true
}

// ClearQuarantine resets a site's breaker on the strength of a peer's
// evidence (federation reconciliation after a partition heals): the
// site re-enters matchmaking immediately, as if a half-open probe had
// succeeded.
func (b *Broker) ClearQuarantine(name string) {
	hl := b.health[name]
	if hl == nil {
		return
	}
	if !hl.quarantinedUntil.IsZero() {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.Unquarantined, Site: name, Detail: "reconciled"})
	}
	hl.fails = 0
	hl.quarantinedUntil = time.Time{}
	hl.probing = false
}

// QuarantinedSites returns the currently quarantined site names,
// sorted (instrumentation).
func (b *Broker) QuarantinedSites() []string {
	var out []string
	for name, hl := range b.health {
		if b.sim.Now().Before(hl.quarantinedUntil) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// releaseSiteLeases drops every lease held against a site (the site
// died or was unregistered), so its reserved capacity stops shadowing
// the rest of the grid.
func (b *Broker) releaseSiteLeases(name string) {
	if q := b.leases[name]; q != nil && q.prune(b.sim.Now()) > 0 {
		// The trace checker "forgives" leases dropped here: the owning
		// jobs' deferred releases still fire and must balance.
		b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseDropped, Site: name, N: q.count})
	}
	delete(b.leases, name)
}

// LeasedCPUs reports the total live (unexpired) lease count across
// all sites — instrumentation for the no-leaked-lease invariant.
func (b *Broker) LeasedCPUs() int {
	now := b.sim.Now()
	n := 0
	for _, q := range b.leases {
		n += q.prune(now)
	}
	return n
}

// KillAgentAt kills one glide-in agent on the named site (fault
// injection: the glide-in process dies), reporting whether an agent
// was there to kill. Agents are picked in sorted-ID order so a seeded
// fault schedule stays deterministic.
func (b *Broker) KillAgentAt(siteName string) bool {
	ids := make([]string, 0, len(b.agents))
	for id := range b.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := b.agents[id]
		if st := b.agentSites[a]; st != nil && st.Name() == siteName {
			a.Die()
			return true
		}
	}
	return false
}
