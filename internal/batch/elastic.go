package batch

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/vmslot"
)

// ElasticConfig shapes a Pool.
type ElasticConfig struct {
	// MaxNodes bounds the pool: nodes are provisioned on demand up to
	// this capacity (default 1).
	MaxNodes int
	// ColdStart is the base latency to boot a node that is not in the
	// warm pool (default 45s).
	ColdStart time.Duration
	// ColdStartJitter adds a seeded uniform extra in [0, Jitter] to
	// each boot (default 0: deterministic cold starts).
	ColdStartJitter time.Duration
	// WarmWindow is how long a freed node stays provisioned waiting
	// for reuse before scale-down reclaims it (default 5m).
	WarmWindow time.Duration
	// Seed drives the cold-start jitter stream.
	Seed int64
	// Cycle is the scheduling pass interval (default 2s, matching the
	// batch queue).
	Cycle time.Duration
}

func (c *ElasticConfig) setDefaults() {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1
	}
	if c.ColdStart <= 0 {
		c.ColdStart = 45 * time.Second
	}
	if c.WarmWindow <= 0 {
		c.WarmWindow = 5 * time.Minute
	}
	if c.Cycle <= 0 {
		c.Cycle = 2 * time.Second
	}
}

// Pool is the cloud-style elastic LRMS adapter: capacity exists only
// as a bound, and worker nodes are provisioned on demand with a seeded
// cold-start latency, reused while warm, and reclaimed after an idle
// window. It keeps the Queue's scheduling contract (priority FCFS,
// head-of-line blocking, deterministic CrashAll) so the 2PC, lease and
// quarantine machinery above it is unchanged.
type Pool struct {
	sim         *simclock.Sim
	name        string
	cfg         ElasticConfig
	machineOpts []vmslot.Option
	rng         *rand.Rand

	nodes   []*Node // provisioned (warm or busy)
	nfree   int     // provisioned nodes with no holder
	booting int     // cold starts in flight
	bootSeq int     // monotone node-name counter
	// gen invalidates in-flight boot and reclaim timers when the pool
	// crashes: a timer armed before CrashAll must not resurrect state.
	gen    int
	idleAt map[*Node]time.Time

	pending []*Handle
	jobs    map[string]*Handle
	seq     int
	passing bool

	stalledUntil time.Time
}

// NewPool creates an elastic LRMS named name on sim. Nodes receive
// CPU machines configured by machineOpts when they boot.
func NewPool(sim *simclock.Sim, name string, cfg ElasticConfig, machineOpts []vmslot.Option) *Pool {
	cfg.setDefaults()
	return &Pool{
		sim:         sim,
		name:        name,
		cfg:         cfg,
		machineOpts: machineOpts,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		idleAt:      make(map[*Node]time.Time),
		jobs:        make(map[string]*Handle),
	}
}

// Name returns the pool (site) name.
func (p *Pool) Name() string { return p.name }

// Nodes returns the currently provisioned worker nodes (shared slice;
// do not mutate). Unlike the batch queue this shrinks and grows.
func (p *Pool) Nodes() []*Node { return p.nodes }

// TotalCPUs reports the pool's capacity bound.
func (p *Pool) TotalCPUs() int { return p.cfg.MaxNodes }

// FreeNodeCount reports placeable capacity: warm free nodes plus the
// unprovisioned headroom a cold start could fill.
func (p *Pool) FreeNodeCount() int { return p.nfree + p.cfg.MaxNodes - len(p.nodes) }

// QueueLength reports the number of pending jobs.
func (p *Pool) QueueLength() int { return len(p.pending) }

// RunningCount reports the number of running jobs.
func (p *Pool) RunningCount() int {
	n := 0
	for _, h := range p.jobs {
		if h.st == Running {
			n++
		}
	}
	return n
}

// Backend advertises the elastic shape and its cold-start bound.
func (p *Pool) Backend() BackendInfo {
	return BackendInfo{Kind: BackendElastic, Startup: p.cfg.ColdStart + p.cfg.ColdStartJitter}
}

// Submit enqueues a job (2PC phase 1). Capacity is validated against
// the pool bound, not the provisioned count: an empty pool still
// accepts work, it just pays cold starts.
func (p *Pool) Submit(r Request) (*Handle, error) {
	if r.RunCB == nil {
		return nil, fmt.Errorf("%w: nil RunCB body", ErrBadRequest)
	}
	if r.Nodes < 1 {
		return nil, fmt.Errorf("%w: Nodes = %d", ErrBadRequest, r.Nodes)
	}
	if r.Nodes > p.cfg.MaxNodes {
		return nil, fmt.Errorf("%w: job %q wants %d nodes, pool caps at %d", ErrBadRequest, r.ID, r.Nodes, p.cfg.MaxNodes)
	}
	if r.ID == "" {
		r.ID = fmt.Sprintf("%s.%d", p.name, p.seq)
	}
	if _, dup := p.jobs[r.ID]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	h := &Handle{
		sim:      p.sim,
		req:      r,
		st:       Pending,
		Done:     p.sim.NewTrigger(),
		Started:  p.sim.NewTrigger(),
		submitAt: p.sim.Now(),
		seq:      p.seq,
	}
	p.seq++
	p.jobs[r.ID] = h
	p.pending = append(p.pending, h)
	p.schedulePass()
	return h, nil
}

func (p *Pool) schedulePass() {
	if p.passing {
		return
	}
	p.passing = true
	d := p.cfg.Cycle
	if until := p.stalledUntil.Sub(p.sim.Now()); until > d {
		d = until
	}
	p.sim.AfterFunc(d, func() {
		p.passing = false
		p.pass()
	})
}

// Stall suspends scheduling passes for d; submissions still queue.
func (p *Pool) Stall(d time.Duration) {
	until := p.sim.Now().Add(d)
	if until.After(p.stalledUntil) {
		p.stalledUntil = until
	}
	if len(p.pending) > 0 {
		p.schedulePass()
	}
}

// Stalled reports whether the pool is inside an injected stall window.
func (p *Pool) Stalled() bool { return p.sim.Now().Before(p.stalledUntil) }

// CrashAll models the whole cloud tenancy dying with its gatekeeper:
// pending jobs drop as Killed, running jobs observe their Killed
// trigger (submission order), in-flight boots are lost, and every
// provisioned node is deprovisioned. A restarted site begins cold.
func (p *Pool) CrashAll() {
	p.gen++
	for _, h := range p.pending {
		h.st = Killed
		h.Done.Fire()
	}
	p.pending = nil
	running := make([]*Handle, 0, len(p.jobs))
	for _, h := range p.jobs {
		if h.st == Running {
			running = append(running, h)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i].seq < running[j].seq })
	for _, h := range running {
		h.exec.Killed.Fire()
	}
	p.nodes = nil
	p.nfree = 0
	p.booting = 0
	p.idleAt = make(map[*Node]time.Time)
}

// pass starts pending jobs priority-FCFS over warm nodes and boots the
// deficit for the head job. Head-of-line blocking matches the batch
// queue: a large job waits for its full allocation before later jobs
// are considered.
func (p *Pool) pass() {
	if p.Stalled() {
		if len(p.pending) > 0 {
			p.schedulePass()
		}
		return
	}
	sort.SliceStable(p.pending, func(i, j int) bool {
		if p.pending[i].req.Priority != p.pending[j].req.Priority {
			return p.pending[i].req.Priority > p.pending[j].req.Priority
		}
		return p.pending[i].seq < p.pending[j].seq
	})
	for len(p.pending) > 0 {
		h := p.pending[0]
		if p.nfree < h.req.Nodes {
			p.bootDeficit(h.req.Nodes - p.nfree)
			return
		}
		nodes := make([]*Node, 0, h.req.Nodes)
		for _, n := range p.nodes {
			if n.holder == nil {
				nodes = append(nodes, n)
				if len(nodes) == h.req.Nodes {
					break
				}
			}
		}
		p.pending = p.pending[1:]
		p.start(h, nodes)
	}
}

// bootDeficit launches cold starts to cover need nodes, counting boots
// already in flight and never exceeding the capacity bound.
func (p *Pool) bootDeficit(need int) {
	need -= p.booting
	if headroom := p.cfg.MaxNodes - len(p.nodes) - p.booting; need > headroom {
		need = headroom
	}
	for i := 0; i < need; i++ {
		p.bootNode()
	}
}

func (p *Pool) bootNode() {
	p.booting++
	gen := p.gen
	lat := p.cfg.ColdStart
	if j := p.cfg.ColdStartJitter; j > 0 {
		lat += time.Duration(p.rng.Int63n(int64(j) + 1))
	}
	p.sim.AfterFunc(lat, func() {
		if gen != p.gen {
			return // pool crashed while booting; the instance is lost
		}
		p.booting--
		n := &Node{
			Name: fmt.Sprintf("%s-en%02d", p.name, p.bootSeq),
			CPU:  vmslot.NewMachine(p.sim, p.machineOpts...),
		}
		p.bootSeq++
		p.nodes = append(p.nodes, n)
		p.nfree++
		p.noteIdle(n)
		if len(p.pending) > 0 {
			p.schedulePass()
		}
	})
}

// noteIdle stamps a node free-at-now and arms the scale-down timer:
// if the node is still idle (same stamp) when the warm window closes,
// it is reclaimed. Reuse re-stamps, which invalidates older timers.
func (p *Pool) noteIdle(n *Node) {
	now := p.sim.Now()
	p.idleAt[n] = now
	gen := p.gen
	p.sim.AfterFunc(p.cfg.WarmWindow, func() {
		if gen != p.gen {
			return
		}
		at, ok := p.idleAt[n]
		if !ok || !at.Equal(now) {
			return // reused (or reclaimed) since; a fresher timer owns it
		}
		if len(p.pending) > 0 {
			// Demand is waiting: keep the node warm and re-arm rather
			// than reclaim capacity the next pass will grab.
			p.noteIdle(n)
			return
		}
		p.reclaim(n)
	})
}

func (p *Pool) reclaim(n *Node) {
	delete(p.idleAt, n)
	for i, m := range p.nodes {
		if m == n {
			p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
			break
		}
	}
	p.nfree--
}

func (p *Pool) start(h *Handle, nodes []*Node) {
	h.st = Running
	h.startAt = p.sim.Now()
	j := &job{h: h}
	for _, n := range nodes {
		n.holder = j
		delete(p.idleAt, n)
	}
	p.nfree -= len(nodes)
	h.exec = &ExecCtx{Nodes: nodes, Killed: p.sim.NewTrigger(), sim: p.sim}
	h.Started.Fire()
	gen := p.gen
	p.sim.Post(func() {
		h.req.RunCB(h.exec, func() { p.finish(h, nodes, gen) })
	})
}

func (p *Pool) finish(h *Handle, nodes []*Node, gen int) {
	// After a crash the nodes were already deprovisioned; only release
	// them back to the warm pool if this incarnation still owns them.
	if gen == p.gen {
		for _, n := range nodes {
			if n.holder != nil && n.holder.h == h {
				n.holder = nil
				p.nfree++
				p.noteIdle(n)
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
	h.Done.Fire()
	if gen == p.gen && len(p.pending) > 0 {
		p.schedulePass()
	}
}

// Kill removes a pending job or signals a running one to stop.
func (p *Pool) Kill(id string) error {
	h, ok := p.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch h.st {
	case Pending:
		for i, q := range p.pending {
			if q == h {
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				break
			}
		}
		h.st = Killed
		h.Done.Fire()
	case Running:
		h.exec.Killed.Fire()
	}
	return nil
}

// Lookup returns the handle for a job id.
func (p *Pool) Lookup(id string) (*Handle, bool) {
	h, ok := p.jobs[id]
	return h, ok
}
