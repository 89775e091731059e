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
//     compensate yielded batch jobs; waiting batch jobs are dispatched
//     best priority first.
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
	"slices"
	"sort"
	"strconv"
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
	// ErrQueueTimeout means an exclusive interactive attempt sat in a
	// remote LRM queue past Config.QueueTimeout and was withdrawn.
	ErrQueueTimeout = errors.New("broker: queue timeout")
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

// Directory is the broker's window onto the information system: an
// *infosys.Service — in a multi-broker grid the one the broker shares
// with its peers, or its own (a split brain freezes every index at the
// same instant). A discovery query is the latency, charged by the
// broker as one timer event, followed by the read at that instant.
type Directory interface {
	// RegisterSite hands the directory to the site, which publishes
	// its record through it.
	site.Publisher
	// QueryLatency is the cost of one discovery query.
	QueryLatency() time.Duration
	// DiscoverImmediate starts a paged traversal as of now.
	DiscoverImmediate(pageSize int) *infosys.Cursor
	// Row reads one site's published row as a traversal started now
	// would page it (the shared-mode agent registry's check).
	Row(name string) (sc *infosys.Schema, vals []any, ok bool)
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
	// Info is the information system used for resource discovery
	// (required). It also decides the read: an index that serves delta
	// subscriptions (infosys.DeltaSource) is polled for what changed
	// since the last pass, any other is queried each pass. New fixes the
	// read from the index as it is then, so deploy the index's delta
	// logs or shard links before building the broker.
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
	// AgentDegree is the multiprogramming degree of launched agents:
	// the number of interactive VMs each creates (default 1, the
	// paper's two-VM configuration; Section 5.2 discusses larger
	// degrees as an extension).
	AgentDegree int
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
	// AgentHeartbeat is the glide-in failure-detection latency: the
	// broker notices a dead agent one heartbeat after the loss and
	// kill-and-resubmits the hosted interactive job (default 10 s).
	AgentHeartbeat time.Duration
	// pageSize bounds how many registry records one discovery page
	// carries: matchmaking streams the information system page by
	// page instead of materializing one flat snapshot of every site.
	// 0 or less (the default, and every production grid) uses
	// infosys.DefaultPageSize; tests set small pages to cross page
	// boundaries.
	pageSize int
	// TopK bounds the candidate set a matchmaking pass keeps: only the
	// K best sites by published-state rank are held, probed and
	// re-ranked, so per-pass memory is O(page size + TopK) no matter how
	// many sites match. 0 (the default) keeps every match.
	TopK int
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

// Terminal reports whether the state is final: Done or Failed.
func (s State) Terminal() bool { return s == Done || s == Failed }

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

// RunContext is passed to a job body. It lives inside the scheduling
// attempt that runs the body (a shared-VM placement or an exclusive
// attempt, run.go) and carries its triggers inline, so running a body
// allocates nothing of its own.
type RunContext struct {
	// Sim is the simulation clock.
	Sim *simclock.Sim
	// Slots are the CPU slots allocated to the job, one per node.
	Slots []*vmslot.Slot
	// Killed fires if the allocation is torn down under the body (the
	// LRM killed the job, a hosting agent died, or the submission was
	// aborted). The default body stops burning CPU when it fires;
	// custom bodies should honour it the same way.
	Killed *simclock.Trigger

	h      *Handle
	st     *site.Site
	killed simclock.Trigger
	// The default body's state (defaultBody, run.go): over runs cont
	// once the CPU is burnt or Killed fires; slotsDone fires when the
	// last of several slots finishes, counted down by remaining. step
	// (rc.next, bound once by run) starts the body, then counts slots.
	cont      func()
	step      func()
	bodyRan   bool
	over      simclock.Trigger
	slotsDone simclock.Trigger
	remaining int
}

// Output models sending n bytes of output to the user machine: after
// the transfer time it fires the handle's FirstOutput on first use,
// then runs then.
func (rc *RunContext) Output(n int, then func()) {
	rc.Sim.AfterFunc(rc.st.Network().TransferTime(n), func() {
		rc.h.outputArrived(rc.Sim.Now())
		then()
	})
}

// input models reading n bytes forwarded from the user machine (one
// round trip of latency), then runs then.
func (rc *RunContext) input(n int, then func()) {
	rc.Sim.AfterFunc(rc.st.Network().RTT()+rc.st.Network().TransferTime(n), then)
}

// Body is a job's execution body, run once per job (not per node) in
// the event that allocated its nodes. It waits by scheduling its
// continuations — rc.Output, a slot burst's
// Start(w).WaitThen — and calls done exactly once when it is over.
type Body func(rc *RunContext, done func())

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

// Handle tracks one submission. Its triggers live inside it: the
// exported pointers point at the embedded fields.
type Handle struct {
	// ID is the broker-assigned job identifier.
	ID string
	// Phases holds the measured phase durations.
	Phases Phases
	// FirstOutput fires when the job's first output reaches the user.
	FirstOutput *simclock.Trigger
	// Done fires when the job finishes (successfully or not).
	Done *simclock.Trigger

	firstOutput, done simclock.Trigger

	// subjob0 is subjobID(h, 0) while resub is 0, when Submit named the
	// job; it shares ID's bytes.
	subjob0 string

	state   State
	err     error
	site    string
	shared  bool
	resub   int
	request Request

	// abort fires when Broker.Abort kills the submission. It holds no
	// callbacks: the current attempt's waits that race against it are
	// in aborts (onAbort), fired in registration order after it and
	// forgotten when the attempt ends (endAttempt), so a job's finished
	// attempts are not pinned by the handle. abortBuf backs aborts for
	// the usual two.
	abort    simclock.Trigger
	aborts   []*simclock.Trigger
	abortBuf [2]*simclock.Trigger
	abortErr error
	// lastErr remembers the most recent attempt's failure so a
	// terminal MaxResubmits abort can surface why the grid gave up.
	lastErr error
	// backoffs counts broker-queue re-queues, driving the capped
	// exponential dispatch backoff.
	backoffs int
	// batchPass is a batch job's match-pass continuation, bound on its
	// first attempt (runBatch).
	batchPass func([]candidate)
	// unavailable counts sites the last selection pass skipped
	// because they were quarantined or failed their direct probe —
	// distinguishing "nothing matches" from "matches are all down".
	unavailable int
	// scanned counts the registry records the last pass enumerated;
	// peak is the most candidates the pass held at once — bounded by
	// Config.TopK when the streamed pass prunes with a rank heap.
	scanned int
	peak    int
	// Delta-subscription bookkeeping for the last pass: the global
	// epoch the deciding delta poll caught up to, when the poll
	// started, and how many deltas / shard re-pins it applied.
	matchEpoch uint64
	polledAt   time.Time
	deltas     int
	repins     int

	submittedAt time.Time
	finishedAt  time.Time
	// subStart is when the attempt that will measure Phases.Submission
	// made its final submission, as an offset from submittedAt.
	subStart time.Duration
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

// outputArrived records output reaching the user: the first one ends
// the submission phase and fires FirstOutput, later ones (a resubmitted
// job's included) change nothing.
func (h *Handle) outputArrived(now time.Time) {
	if h.firstOutput.Fired() {
		return
	}
	h.Phases.Submission = now.Sub(h.submittedAt) - h.subStart
	h.firstOutput.Fire()
}

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

	// sites is the registry of sites, keyed by name: everything the
	// broker knows about a registered site is on its one record. The
	// page scan resolves every published record here, so one lookup
	// gives a pass the site and its breaker state together.
	sites map[string]*siteEntry
	// names lists the registered names, in name order unless renumber
	// says a site registered under a new name since the entries'
	// ordinals were last assigned (ordinals).
	names    []string
	renumber bool
	// admitted is the page scan's admission cache over sites, per
	// registry shard and row position (admit in matchmaking.go): the
	// name last read at that position and its entry. A republished row
	// keeps its position and its name string, so a pass resolves most
	// records by one string comparison instead of a map lookup.
	// RegisterSite clears it, since a new or replaced site changes what
	// a cached name resolves to.
	admitted [][]admitSlot
	// agents is the local registry of glide-in agents: every live agent,
	// with the shared-VM placements running on it (run.go), which the
	// agent's one Released callback notifies.
	agents map[*glidein.Agent][]*placement

	// freeAgents tracks agents with a free interactive VM, sorted by
	// agent ID, which is unique: membership is a binary search. The
	// list is exact: agents enter when they become ready or a VM frees
	// up (OnFree) and leave when the last VM is taken (OnBusy) or on
	// release, so an interactive submission scans only true candidates
	// without polling FreeSlots — the old registry-wide scan was the
	// dominant per-job cost on large grids, and the lazy busy-eviction
	// walk that replaced it still paid a pointer-chasing Free() check
	// per entry. freeScratch and reqMemo are per-call scratch storage
	// for freeAgentsMatching.
	freeAgents  []*glidein.Agent
	freeScratch []*glidein.Agent
	reqMemo     map[string]bool // site name -> Requirements pass
	passes      []*pass         // recycled matchmaking passes, see matchPass
	placements  []*placement    // recycled shared-VM attempts, see newPlacement

	// classes shares each job class's compiled Requirements and Rank
	// among its jobs (jdl.Classes).
	classes jdl.Classes

	seq int

	// The broker queue: pendingBatch holds the batch jobs waiting for
	// resources, and drained the buffer it was last emptied from, which
	// the next re-queues fill. A re-queue wakes the queue through kick
	// (b.kickDispatch), and a wake runs dispatchNow (b.dispatchKicked)
	// unless dispatching says one is scheduled already.
	pendingBatch, drained []*Handle
	dispatching           bool
	kick, dispatchNow     func()

	// routing holds the submissions whose route event is posted; each
	// event, routeNext (b.routeOldest), routes the oldest, so jobs route
	// in submission order. retrying and retryNext (b.retryOldest) do
	// the same for the queued jobs a broker-queue pass retries. All
	// four are bound in New.
	routing, retrying    handleFIFO
	routeNext, retryNext func()

	// offloader is the federation's queue-pressure hook (SetOffloader);
	// nil outside a federation.
	offloader func(h *Handle) bool

	// sub is the delta subscription (incremental.go); non-nil exactly
	// when Config.Info serves subscriptions.
	sub *subscriber

	// matchOracle, when set, replaces the match pipeline. Only
	// oracle_test.go sets it, to run whole scheduling scenarios on the
	// naive whole-snapshot reference.
	matchOracle func(h *Handle, cont func([]candidate))
}

// siteEntry is one registered site's record: the site, its circuit
// breaker, its exclusive-temporal-access leases, the hash of its name
// every pass's tie-break noise starts from, and its ordinal, the
// site's position in name order among the sites registered here. Every "then by site name" of the match pass
// compares ordinals; a pass renumbers them after a registration
// (ordinals).
type siteEntry struct {
	st       *site.Site
	health   siteHealth
	leases   leaseQueue
	nameHash uint64
	ord      int32
}

// ordinals numbers the registered sites in name order, if a site
// registered under a new name since they were last numbered. A pass
// calls it before its scan. Numbering once per batch of registrations
// costs O(sites log sites), however the names arrive; numbering at each
// registration would cost O(sites) each, quadratic in a grid whose
// names do not register in name order ("site9999" before "site10000").
func (b *Broker) ordinals() {
	if !b.renumber {
		return
	}
	b.renumber = false
	slices.Sort(b.names)
	for i, name := range b.names {
		b.sites[name].ord = int32(i)
	}
}

// handleFIFO is the queue behind a posted event that stands in for a
// closure per handle: posted events run in the order they were posted,
// so the oldest handle is the one each event is for.
type handleFIFO struct {
	hs   []*Handle
	head int
}

func (q *handleFIFO) push(h *Handle) { q.hs = append(q.hs, h) }

func (q *handleFIFO) pop() *Handle {
	h := q.hs[q.head]
	q.hs[q.head] = nil
	q.head++
	if q.head == len(q.hs) {
		q.hs, q.head = q.hs[:0], 0
	}
	return h
}

// admitSlot is one row position's cached admission: the site name last
// read there and its entry in Broker.sites, nil when no site of that
// name is registered here. The zero slot matches no record, since the
// registry refuses a record without a name.
type admitSlot struct {
	name string
	e    *siteEntry
}

// admitRow returns shard's admission slots, grown with zero slots to
// at least n row positions.
func (b *Broker) admitRow(shard, n int) []admitSlot {
	if shard >= len(b.admitted) {
		b.admitted = slices.Grow(b.admitted, shard+1-len(b.admitted))[:shard+1]
	}
	row := b.admitted[shard]
	if n > len(row) {
		row = slices.Grow(row, n-len(row))[:n]
		b.admitted[shard] = row
	}
	return row
}

// New creates a broker.
func New(cfg Config) *Broker {
	cfg.setDefaults()
	if cfg.Sim == nil {
		panic("broker: Config.Sim is required")
	}
	if cfg.Info == nil {
		panic("broker: Config.Info is required")
	}
	b := &Broker{
		cfg:    cfg,
		sim:    cfg.Sim,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		sites:  make(map[string]*siteEntry),
		agents: make(map[*glidein.Agent][]*placement),
	}
	b.routeNext, b.retryNext = b.routeOldest, b.retryOldest
	b.kick, b.dispatchNow = b.kickDispatch, b.dispatchKicked
	if src, ok := cfg.Info.(infosys.DeltaSource); ok && src.ServesSubscriptions() {
		b.sub = newSubscriber(b, src)
	}
	return b
}

// RegisterSite makes a site available for scheduling and starts its
// information-system publishing. A crash notification from the site
// immediately releases every lease held against it (so matchmaking
// capacity recovers without waiting for natural expiry) and
// quarantines it. A site registered under a taken name replaces the
// entry and keeps its ordinal; a new name renumbers the sites before
// the next pass (ordinals).
func (b *Broker) RegisterSite(st *site.Site) {
	name := st.Name()
	e := &siteEntry{st: st, nameHash: nameHash(name)}
	if old := b.sites[name]; old != nil {
		e.ord = old.ord
	} else {
		b.names = append(b.names, name)
		b.renumber = true
	}
	b.sites[name] = e
	b.admitted = nil
	st.SetTracer(b.cfg.Trace)
	st.OnDeath(func() {
		b.releaseSiteLeases(name)
		b.quarantineNow(name)
		b.kickDispatch()
	})
	st.StartPublishing(b.cfg.Info)
	if b.cfg.Fair != nil {
		total := 0
		for _, e := range b.sites {
			total += e.st.Queue().TotalCPUs()
		}
		b.cfg.Fair.SetTotal(total)
	}
}

// FreeAgents reports how many registered agents have a free
// interactive VM.
func (b *Broker) FreeAgents() int { return len(b.freeAgents) }

// freeInteractiveVMs reports the total free interactive VM count
// across registered agents (differs from FreeAgents when the
// multiprogramming degree exceeds one).
func (b *Broker) freeInteractiveVMs() int {
	n := 0
	for _, a := range b.freeAgents {
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
	if err := checkRequest(&req); err != nil {
		return nil, err
	}
	b.seq++
	prefix := b.cfg.Name
	if prefix == "" {
		prefix = "cb"
	}
	id, subjob0 := jobID(prefix, b.seq)
	h := b.newHandle(req, id, 0)
	h.subjob0 = subjob0
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Submitted, Job: h.ID, Detail: jobClass(req.Job)})
	b.postRoute(h)
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
	if err := checkRequest(&req); err != nil {
		return nil, err
	}
	h := b.newHandle(req, id, attempt)
	b.postRoute(h)
	return h, nil
}

// checkRequest validates a submission and names its user
// ("anonymous" when it names none).
func checkRequest(req *Request) error {
	if req.Job == nil {
		return fmt.Errorf("broker: request without job")
	}
	if err := req.Job.Validate(); err != nil {
		return err
	}
	if req.User == "" {
		req.User = "anonymous"
	}
	return nil
}

// newHandle builds a pending handle and binds its embedded triggers.
func (b *Broker) newHandle(req Request, id string, attempt int) *Handle {
	h := &Handle{
		ID:          id,
		state:       Pending,
		request:     req,
		resub:       attempt,
		submittedAt: b.sim.Now(),
	}
	b.sim.InitTrigger(&h.firstOutput)
	b.sim.InitTrigger(&h.done)
	b.sim.InitTrigger(&h.abort)
	h.FirstOutput = &h.firstOutput
	h.Done = &h.done
	h.aborts = h.abortBuf[:0]
	return h
}

// jobID formats prefix-NNNNNN, the sequence number zero-padded to six
// digits, and the name of the job's first subjob on a shared VM in its
// first attempt, prefix-NNNNNN#0.0 (see subjobID). The two share one
// string, the only allocation.
func jobID(prefix string, seq int) (id, subjob0 string) {
	var buf [36]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	for w := 100000; w > 1 && seq < w; w /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(seq), 10)
	n := len(b)
	subjob0 = string(append(b, "#0.0"...))
	return subjob0[:n], subjob0
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
	if h.state.Terminal() {
		return
	}
	b.pendingBatch = append(b.pendingBatch, h)
	b.sim.AfterFunc(b.retryDelay(h.backoffs), b.kick)
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
	if h.state.Terminal() || h.abort.Fired() {
		return
	}
	if reason == nil {
		reason = ErrAborted
	}
	h.abortErr = reason
	h.abort.Fire()
	ts := h.aborts
	h.aborts = nil
	for _, t := range ts {
		t.Fire()
	}
}

// onAbort makes Abort fire t for as long as the current attempt runs
// (at once if the job is already aborted). A t that already fired needs
// no registration.
func (h *Handle) onAbort(t *simclock.Trigger) {
	switch {
	case h.abort.Fired():
		t.Fire()
	case !t.Fired():
		h.aborts = append(h.aborts, t)
	}
}

// endAttempt forgets the current attempt's abort registrations. Every
// one of them has fired or belongs to a body that is over by then, so
// an Abort reaching it would do nothing.
func (h *Handle) endAttempt() {
	clear(h.aborts)
	h.aborts = h.aborts[:0]
}

// postRoute routes h in an event of its own at the current instant.
func (b *Broker) postRoute(h *Handle) {
	b.routing.push(h)
	b.sim.Post(b.routeNext)
}

// routeOldest routes the oldest submission in the routing queue.
func (b *Broker) routeOldest() { b.route(b.routing.pop()) }

// route picks the scheduling path per job type (Figure 5).
func (b *Broker) route(h *Handle) {
	job := h.request.Job
	switch {
	case !job.Interactive:
		b.runBatch(h)
	case job.Access == jdl.SharedAccess:
		b.runInteractiveShared(h, true)
	default:
		b.runInteractiveExclusive(h)
	}
}

func (b *Broker) fail(h *Handle, err error) {
	if h.state.Terminal() {
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
	if h.state.Terminal() {
		return
	}
	h.state = Done
	h.finishedAt = b.sim.Now()
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Done, Job: h.ID, Site: h.site, Attempt: h.resub})
	h.Done.Fire()
	b.kickDispatch()
}

// started records that h's attempt began running on site with cpus
// processors: the job is Running there, the Started event is out, and
// fair share charges the allocation.
func (b *Broker) started(h *Handle, site string, cpus int) {
	h.state = Running
	h.site = site
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: site, Attempt: h.resub})
	b.account(h, cpus)
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
// reason, and keeps the attempt's cause for a spent budget to report.
// A queue timeout has no cause of its own (the job never ran): it
// passes nil, and the last cause on record stays.
func (b *Broker) noteResub(h *Handle, siteName, reason string, cause error) {
	if cause != nil {
		h.lastErr = cause
	}
	h.resub++
	b.cfg.Trace.Emit(trace.Event{Kind: trace.Resubmitted, Job: h.ID, Site: siteName, Attempt: h.resub, Detail: reason})
}

// resubmitsSpent fails h terminally once its resubmissions exceed
// Config.MaxResubmits, surfacing the last attempt's failure in the
// outcome, and reports whether it did.
func (b *Broker) resubmitsSpent(h *Handle) bool {
	if b.cfg.MaxResubmits <= 0 || h.resub <= b.cfg.MaxResubmits {
		return false
	}
	err := fmt.Errorf("%w (%d resubmissions)", ErrMaxResubmits, h.resub)
	if h.lastErr != nil {
		err = fmt.Errorf("%w (%d resubmissions): %w", ErrMaxResubmits, h.resub, h.lastErr)
	}
	b.fail(h, err)
	return true
}

// ---------------------------------------------------------------------
// Dead-site quarantine: a circuit breaker per site. Consecutive
// failures (failed submissions, unreachable probes, crash
// notifications) trip it; while tripped the site is excluded from
// matchmaking; after the cool-down the next pass probes it again —
// one success resets the breaker, one more failure re-trips it.
// ---------------------------------------------------------------------

// quarantineThreshold is the consecutive-failure count that trips a
// site's breaker, and quarantineCooldown how long a tripped site stays
// excluded before the broker probes it back in.
const (
	quarantineThreshold = 3
	quarantineCooldown  = 5 * time.Minute
)

// siteHealth's fails and probing share one word, which keeps a
// siteEntry, ordinal included, in the 144-byte size class.
type siteHealth struct {
	fails int32
	// probing gates the half-open state to one probe in flight: the
	// pass about to probe the site back sets it (claimHalfOpen),
	// concurrent passes keep treating the site as quarantined until the
	// probe resolves.
	probing          bool
	quarantinedUntil time.Time
	// trippedAt and lastSuccess are the evidence federation
	// reconciliation compares: a peer whose success on the site is
	// newer than this broker's trip refutes the quarantine.
	trippedAt   time.Time
	lastSuccess time.Time
}

// noteSiteFailure records a failed interaction with a site, tripping
// the circuit breaker at quarantineThreshold consecutive failures.
func (b *Broker) noteSiteFailure(name string) {
	hl := &b.sites[name].health
	hl.fails++
	hl.probing = false
	if hl.fails >= quarantineThreshold {
		if !b.sim.Now().Before(hl.quarantinedUntil) {
			b.cfg.Trace.Emit(trace.Event{Kind: trace.Quarantined, Site: name, N: int(hl.fails)})
		}
		hl.trippedAt = b.sim.Now()
		hl.quarantinedUntil = b.sim.Now().Add(quarantineCooldown)
	}
}

// noteSiteSuccess resets a site's circuit breaker and records the
// success as reconciliation evidence.
func (b *Broker) noteSiteSuccess(name string) {
	hl := &b.sites[name].health
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
func (b *Broker) noteProbeAnswered(e *siteEntry) {
	hl := &e.health
	hl.probing = false
	hl.lastSuccess = b.sim.Now()
}

// quarantineNow trips a site's breaker immediately (crash
// notification — no need to accumulate failures).
func (b *Broker) quarantineNow(name string) {
	hl := &b.sites[name].health
	if hl.fails < quarantineThreshold {
		hl.fails = quarantineThreshold
	}
	if !b.sim.Now().Before(hl.quarantinedUntil) {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.Quarantined, Site: name, N: int(hl.fails)})
	}
	hl.probing = false
	hl.trippedAt = b.sim.Now()
	hl.quarantinedUntil = b.sim.Now().Add(quarantineCooldown)
}

// breakerOpen is the admit stage's filter over quarantine state, a pure
// read: a site is excluded while its breaker is inside the cooldown,
// or half-open with its one probe-back in flight.
func breakerOpen(hl *siteHealth, now time.Time) bool {
	return now.Before(hl.quarantinedUntil) || hl.probing
}

// claimHalfOpen takes the half-open gate for a site a pass is about to
// probe: if the breaker is tripped and cooled down, this probe is the
// probe-back, and until it is answered or fails (noteProbeAnswered,
// noteSiteFailure) concurrent passes — even in the same tick — keep
// the site excluded, so a tentatively readmitted site sees exactly one
// probe in flight. The claim is taken here, for a site that will be
// probed, and not by the filter: a claim taken for a site that then
// failed Requirements or fell out of the top K was never released.
func (b *Broker) claimHalfOpen(e *siteEntry) {
	hl := &e.health
	if hl.fails >= quarantineThreshold && !hl.quarantinedUntil.IsZero() {
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
// false when the site is not registered here. A registered site the
// broker never interacted with reports zero evidence.
func (b *Broker) SiteEvidence(name string) (HealthEvidence, bool) {
	e := b.sites[name]
	if e == nil {
		return HealthEvidence{}, false
	}
	hl := &e.health
	return HealthEvidence{
		Fails:       int(hl.fails),
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
	e := b.sites[name]
	if e == nil {
		return
	}
	hl := &e.health
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
	for name, e := range b.sites {
		if b.sim.Now().Before(e.health.quarantinedUntil) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// releaseSiteLeases drops every lease held against a site (the site
// died), so its reserved capacity stops shadowing the rest of the grid.
func (b *Broker) releaseSiteLeases(name string) {
	e := b.sites[name]
	if n := e.leases.prune(b.sim.Now()); n > 0 {
		// The trace checker "forgives" leases dropped here: the owning
		// jobs' deferred releases still fire and must balance.
		b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseDropped, Site: name, N: n})
	}
	e.leases = leaseQueue{}
}

// LeasedCPUs reports the total live (unexpired) lease count across
// all sites — instrumentation for the no-leaked-lease invariant.
func (b *Broker) LeasedCPUs() int {
	now := b.sim.Now()
	n := 0
	for _, e := range b.sites {
		n += e.leases.prune(now)
	}
	return n
}

// KillAgentAt kills one glide-in agent on the named site (fault
// injection: the glide-in process dies), reporting whether an agent
// was there to kill. The agent with the smallest ID is picked, so a
// seeded fault schedule stays deterministic.
func (b *Broker) KillAgentAt(siteName string) bool {
	var victim *glidein.Agent
	for a := range b.agents {
		if a.Site().Name() == siteName && (victim == nil || a.ID() < victim.ID()) {
			victim = a
		}
	}
	if victim == nil {
		return false
	}
	victim.Die()
	return true
}
