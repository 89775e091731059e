// Package batch simulates the local resource manager (LRM) present at
// every grid site — the PBS or Condor queue of Section 3 that has
// "full control over local resources and jobs running on them" and
// whose queue-wait behaviour motivates the paper's multi-programming
// mechanism.
//
// The model is a space-shared FCFS queue (with optional priorities)
// over worker nodes, running in virtual time. The nodes are a fixed
// pool (NewQueue) or an on-demand supply up to a bound (NewPool, the
// elastic cloud backend of elastic.go); nothing else differs. Each
// worker node owns a vmslot.Machine so that jobs, glide-in agents and
// virtual machine slots can consume simulated CPU on it. The broker
// interacts with the queue only through Submit/Kill and the
// free-nodes/queue-length introspection the gatekeeper publishes —
// the same interface surface Globus exposed over the real LRMs.
package batch

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/vmslot"
)

// State is a job's lifecycle state in the local queue.
type State int

// Job states, in lifecycle order.
const (
	Pending State = iota
	Running
	Completed
	Killed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Killed:
		return "killed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Node is one worker node managed by the queue.
type Node struct {
	// Name identifies the node within its site.
	Name string
	// CPU is the node's processor, on which jobs and VM slots run.
	CPU *vmslot.Machine

	holder *job
}

// ExecCtx is passed to a job's body when it starts.
type ExecCtx struct {
	// Nodes are the worker nodes allocated to the job.
	Nodes []*Node
	// Killed fires when the LRM kills the job; long-running bodies
	// must watch it and return promptly.
	Killed *simclock.Trigger

	sim *simclock.Sim
}

// Request describes a job submitted to the local queue.
type Request struct {
	// ID is the job identifier; unique per queue.
	ID string
	// Owner is the submitting identity (accounting).
	Owner string
	// Nodes is the number of worker nodes required (>= 1).
	Nodes int
	// Priority orders the pending queue (higher first, FCFS within a
	// priority level). Local jobs default to 0.
	Priority int
	// RunCB is the job body, dispatched in a plain event when nodes
	// are allocated: it waits by scheduling its continuations
	// (AfterFunc, Trigger.WaitThen) and calls done exactly once when
	// the job completes.
	RunCB func(ctx *ExecCtx, done func())
}

// Handle tracks a submitted job.
type Handle struct {
	req  Request
	st   State
	exec *ExecCtx
	// Done fires when the job reaches Completed or Killed.
	Done *simclock.Trigger
	// Started fires when the job begins execution.
	Started *simclock.Trigger

	seq int
}

// ID returns the job identifier.
func (h *Handle) ID() string { return h.req.ID }

// State returns the job's current state.
func (h *Handle) State() State { return h.st }

// Backend kinds, one per node supply.
const (
	// BackendBatch is the classic always-provisioned space-shared
	// queue (NewQueue).
	BackendBatch = "batch"
	// BackendElastic is the cloud-style queue that cold-starts nodes on
	// demand (NewPool).
	BackendElastic = "elastic"
)

// BackendInfo describes the shape of a queue's node supply, published
// as site attributes so matchmaking (and the interactive classifier)
// can reason about it.
type BackendInfo struct {
	// Kind is the supply family (BackendBatch, BackendElastic).
	Kind string
	// Startup is the advertised worst-case delay between the LRM
	// accepting a job and a node being able to run it, beyond queueing:
	// zero for always-provisioned pools, the cold-start bound for
	// elastic ones.
	Startup time.Duration
}

// Queue is the site's local resource manager.
type Queue struct {
	sim   *simclock.Sim
	name  string
	nodes []*Node // provisioned nodes: all of a fixed pool, the warm or busy ones of an elastic queue
	nfree int     // provisioned nodes with no holder, maintained by start/finish

	// cycle is the LRM's scheduling pass interval: a submitted job is
	// considered at the next pass, modeling PBS/Condor negotiation
	// latency.
	cycle time.Duration

	// pending holds the jobs waiting for nodes. Its first sorted
	// entries are in pass order, (priority desc, seq asc), as the last
	// pass left them; the rest arrived since, in submission order, and
	// the next pass merges them in (see order).
	pending []*Handle
	sorted  int
	merge   []*Handle          // order's scratch copy of the arrivals
	jobs    map[string]*Handle // pending and running jobs; finished ones are forgotten
	seq     int
	passing bool

	// stalledUntil suspends scheduling passes (an LRM hang injected by
	// the fault layer): submissions are still accepted, but no pending
	// job starts before the stall ends.
	stalledUntil time.Time

	// elastic is the on-demand node supply (elastic.go), nil for a fixed
	// pool. gen invalidates its in-flight boot and reclaim timers and the
	// node releases of jobs started before a crash; idleAt stamps its
	// warm nodes. Both stay zero for a fixed pool (delete on a nil map is
	// a no-op).
	elastic *supply
	gen     int
	idleAt  map[*Node]time.Time
}

// QueueOption configures a Queue.
type QueueOption func(*Queue)

// WithCycle sets the scheduling pass latency (default 2s, the order of
// magnitude of a local scheduler's negotiation cycle).
func WithCycle(d time.Duration) QueueOption { return func(q *Queue) { q.cycle = d } }

// NewQueue creates an LRM named name with n worker nodes on sim. Each
// node receives its own CPU machine configured by machineOpts.
func NewQueue(sim *simclock.Sim, name string, n int, machineOpts []vmslot.Option, opts ...QueueOption) *Queue {
	q := &Queue{
		sim:   sim,
		name:  name,
		cycle: 2 * time.Second,
		jobs:  make(map[string]*Handle),
	}
	for i := 0; i < n; i++ {
		q.nodes = append(q.nodes, &Node{
			Name: fmt.Sprintf("%s-wn%02d", name, i),
			CPU:  vmslot.NewMachine(sim, machineOpts...),
		})
	}
	q.nfree = len(q.nodes)
	for _, o := range opts {
		o(q)
	}
	return q
}

// Submission errors.
var (
	ErrDuplicateID = errors.New("batch: duplicate job id")
	ErrBadRequest  = errors.New("batch: bad request")
	ErrUnknownJob  = errors.New("batch: unknown job")
)

// Submit enqueues a job (2PC phase 1). The job is considered at the
// next scheduling pass (one cycle later), or immediately at the
// following pass if resources are busy. Capacity is validated against
// TotalCPUs: an empty elastic queue still accepts work, it just pays
// cold starts.
func (q *Queue) Submit(r Request) (*Handle, error) {
	if r.RunCB == nil {
		return nil, fmt.Errorf("%w: nil RunCB body", ErrBadRequest)
	}
	if r.Nodes < 1 {
		return nil, fmt.Errorf("%w: Nodes = %d", ErrBadRequest, r.Nodes)
	}
	if total := q.TotalCPUs(); r.Nodes > total {
		return nil, fmt.Errorf("%w: job %q wants %d nodes, site has %d", ErrBadRequest, r.ID, r.Nodes, total)
	}
	if r.ID == "" {
		r.ID = fmt.Sprintf("%s.%d", q.name, q.seq)
	}
	if _, dup := q.jobs[r.ID]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	h := &Handle{
		req:     r,
		st:      Pending,
		Done:    q.sim.NewTrigger(),
		Started: q.sim.NewTrigger(),
		seq:     q.seq,
	}
	q.seq++
	q.jobs[r.ID] = h
	q.pending = append(q.pending, h)
	q.schedulePass()
	return h, nil
}

// schedulePass arranges a scheduling pass one cycle from now (or at
// the end of an injected stall, whichever is later), if one is not
// already scheduled.
func (q *Queue) schedulePass() {
	if q.passing {
		return
	}
	q.passing = true
	d := q.cycle
	if until := q.stalledUntil.Sub(q.sim.Now()); until > d {
		d = until
	}
	q.sim.AfterFunc(d, func() {
		q.passing = false
		q.pass()
	})
}

// Stall suspends scheduling passes for d (a hung LRM daemon): jobs
// keep queueing but none starts until the stall elapses. Overlapping
// stalls extend to the latest end.
func (q *Queue) Stall(d time.Duration) {
	until := q.sim.Now().Add(d)
	if until.After(q.stalledUntil) {
		q.stalledUntil = until
	}
	if len(q.pending) > 0 {
		q.schedulePass()
	}
}

// stalled reports whether the LRM is currently inside an injected
// stall window.
func (q *Queue) stalled() bool { return q.sim.Now().Before(q.stalledUntil) }

// CrashAll models the site's worker pool dying with its gatekeeper:
// every pending job is dropped as Killed, including uncommitted
// two-phase-commit submissions, and every running job is killed
// (bodies observe their Killed trigger). An elastic queue also loses
// its whole tenancy, booting nodes included: a restarted site begins
// cold.
func (q *Queue) CrashAll() {
	if q.elastic != nil {
		q.gen++ // before the kills: the dead tenancy's nodes are never released
	}
	for _, h := range q.pending {
		h.st = Killed
		delete(q.jobs, h.req.ID)
		h.Done.Fire()
	}
	q.pending, q.sorted = nil, 0
	// Kill in submission order: q.jobs is a map, and job bodies emit
	// trace events from their Killed hooks, so iteration order must be
	// deterministic.
	running := make([]*Handle, 0, len(q.jobs))
	for _, h := range q.jobs {
		if h.st == Running {
			running = append(running, h)
		}
	}
	slices.SortFunc(running, func(a, b *Handle) int { return cmp.Compare(a.seq, b.seq) })
	for _, h := range running {
		h.exec.Killed.Fire()
	}
	if q.elastic != nil {
		q.deprovision()
	}
}

// pass starts every pending job that fits, in priority order (FCFS
// within a level). No backfill: a large job at the head blocks later
// jobs, as in a plain FCFS PBS configuration; an elastic queue boots
// the head job's deficit while it waits.
func (q *Queue) pass() {
	if q.stalled() {
		if len(q.pending) > 0 {
			q.schedulePass()
		}
		return
	}
	q.order()
	for len(q.pending) > 0 {
		h := q.pending[0]
		if q.nfree < h.req.Nodes {
			if q.elastic != nil {
				q.bootDeficit(h.req.Nodes - q.nfree)
			}
			return
		}
		// Exact-size allocation: the slice is retained in ExecCtx for
		// the job's whole run, so it cannot come from a scratch buffer.
		nodes := make([]*Node, 0, h.req.Nodes)
		for _, n := range q.nodes {
			if n.holder == nil {
				nodes = append(nodes, n)
				if len(nodes) == h.req.Nodes {
					break
				}
			}
		}
		q.pending = q.pending[1:]
		if q.sorted > 0 {
			q.sorted--
		}
		q.start(h, nodes)
	}
}

// passOrder is the order a pass starts pending jobs in: priority
// descending, then submission order. seq is unique, so it is a total
// order, and any sort gives the one order a stable sort would.
func passOrder(a, b *Handle) int {
	if c := cmp.Compare(b.req.Priority, a.req.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// order puts pending in pass order. Only the arrivals since the last
// pass can be out of place: they are sorted among themselves and
// merged into the sorted prefix from the back, through a scratch copy
// the queue keeps. The result is the full sort of pending, because
// passOrder is total.
func (q *Queue) order() {
	p, n := q.pending, q.sorted
	q.sorted = len(p)
	arrivals := p[n:]
	if len(arrivals) == 0 {
		return
	}
	slices.SortFunc(arrivals, passOrder)
	if n == 0 || passOrder(p[n-1], arrivals[0]) < 0 {
		return // every arrival goes after the prefix
	}
	arrivals = append(q.merge[:0], arrivals...)
	i, j := n-1, len(arrivals)-1
	for k := len(p) - 1; j >= 0; k-- {
		if i >= 0 && passOrder(p[i], arrivals[j]) > 0 {
			p[k] = p[i]
			i--
		} else {
			p[k] = arrivals[j]
			j--
		}
	}
	clear(arrivals) // hold no finished job
	q.merge = arrivals[:0]
}

type job struct{ h *Handle }

func (q *Queue) start(h *Handle, nodes []*Node) {
	h.st = Running
	j := &job{h: h}
	for _, n := range nodes {
		n.holder = j
		delete(q.idleAt, n)
	}
	q.nfree -= len(nodes)
	h.exec = &ExecCtx{Nodes: nodes, Killed: q.sim.NewTrigger(), sim: q.sim}
	h.Started.Fire()
	gen := q.gen
	q.sim.Post(func() {
		h.req.RunCB(h.exec, func() { q.finish(h, nodes, gen) })
	})
}

// finish ends a job whose body returned and forgets it. Its nodes go
// back to the pool only if the queue has not crashed since the job
// started: a crashed elastic queue deprovisioned them already.
func (q *Queue) finish(h *Handle, nodes []*Node, gen int) {
	live := gen == q.gen
	if live {
		for _, n := range nodes {
			if n.holder != nil && n.holder.h == h {
				n.holder = nil
				q.nfree++
				if q.elastic != nil {
					q.noteIdle(n)
				}
			}
		}
	}
	if h.st == Running {
		if h.exec.Killed.Fired() {
			h.st = Killed
		} else {
			h.st = Completed
		}
	}
	delete(q.jobs, h.req.ID)
	h.Done.Fire()
	if live && len(q.pending) > 0 {
		q.schedulePass()
	}
}

// Kill removes a pending job or signals a running one to stop. The
// running job's body must honour its Killed trigger; the node is
// released when the body returns. A job that has finished, or was
// dropped while pending, is forgotten: killing it reports
// ErrUnknownJob.
func (q *Queue) Kill(id string) error {
	h, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch h.st {
	case Pending:
		for i, p := range q.pending {
			if p == h {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				if i < q.sorted {
					q.sorted--
				}
				break
			}
		}
		h.st = Killed
		delete(q.jobs, id)
		h.Done.Fire()
	case Running:
		h.exec.Killed.Fire()
	}
	return nil
}

// FreeNodeCount reports placeable capacity: provisioned nodes with no
// holder, plus the headroom an elastic queue could cold-start into.
func (q *Queue) FreeNodeCount() int { return q.nfree + q.TotalCPUs() - len(q.nodes) }

// TotalCPUs reports the queue's capacity: the node count of a fixed
// pool, the bound of an elastic queue.
func (q *Queue) TotalCPUs() int {
	if q.elastic != nil {
		return q.elastic.MaxNodes
	}
	return len(q.nodes)
}

// Backend describes the queue's shape. A fixed pool is always
// provisioned, with no node startup cost beyond the scheduling cycle;
// an elastic queue advertises its worst-case cold start.
func (q *Queue) Backend() BackendInfo {
	if e := q.elastic; e != nil {
		return BackendInfo{Kind: BackendElastic, Startup: e.ColdStart + e.ColdStartJitter}
	}
	return BackendInfo{Kind: BackendBatch}
}

// QueueLength reports the number of pending jobs.
func (q *Queue) QueueLength() int { return len(q.pending) }

// RunningCount reports the number of running jobs.
func (q *Queue) RunningCount() int {
	n := 0
	for _, h := range q.jobs {
		if h.st == Running {
			n++
		}
	}
	return n
}

// FixedWorkCB returns a job body that consumes the given CPU time on
// a dedicated slot of every allocated node (the common synthetic batch
// job), finishing early if killed.
func FixedWorkCB(cpu time.Duration) func(*ExecCtx, func()) {
	return func(ctx *ExecCtx, fin func()) {
		if len(ctx.Nodes) == 0 {
			fin()
			return
		}
		done := ctx.sim.NewTrigger()
		remaining := len(ctx.Nodes)
		slots := make([]*vmslot.Slot, 0, len(ctx.Nodes))
		for _, n := range ctx.Nodes {
			slot := n.CPU.NewSlot("batchjob", 100)
			slots = append(slots, slot)
			t := slot.Start(cpu)
			t.OnFire(func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		ctx.Killed.OnFire(done.Fire)
		done.WaitThen(func() {
			for _, s := range slots {
				s.Close() // stops any work left when killed; idempotent
			}
			fin()
		})
	}
}
