package batch

import (
	"fmt"
	"math/rand"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/vmslot"
)

// ElasticConfig shapes an elastic queue's node supply.
type ElasticConfig struct {
	// MaxNodes bounds the queue: nodes are provisioned on demand up to
	// this capacity (default 1).
	MaxNodes int
	// ColdStart is the base latency to boot a node that is not in the
	// warm pool (default 45s).
	ColdStart time.Duration
	// ColdStartJitter adds a seeded uniform extra in [0, Jitter] to
	// each boot (default 0: deterministic cold starts).
	ColdStartJitter time.Duration
	// warmWindow is how long a freed node stays provisioned waiting
	// for reuse before scale-down reclaims it (default 5m, which every
	// production site uses; tests shorten it).
	warmWindow time.Duration
	// Seed drives the cold-start jitter stream.
	Seed int64
}

func (c *ElasticConfig) setDefaults() {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1
	}
	if c.ColdStart <= 0 {
		c.ColdStart = 45 * time.Second
	}
	if c.warmWindow <= 0 {
		c.warmWindow = 5 * time.Minute
	}
}

// supply is an elastic queue's on-demand node supply: capacity exists
// only as a bound, and worker nodes are provisioned with a seeded
// cold-start latency, reused while warm, and reclaimed after an idle
// window.
type supply struct {
	ElasticConfig
	machineOpts []vmslot.Option
	rng         *rand.Rand
	booting     int // cold starts in flight
	bootSeq     int // monotone node-name counter
}

// NewPool creates an elastic queue named name on sim: the cloud-style
// LRM, which keeps the fixed queue's scheduling contract (priority
// FCFS, head-of-line blocking, deterministic CrashAll) so the 2PC,
// lease and quarantine machinery above it is unchanged. It starts with
// no nodes; each receives a CPU machine configured by machineOpts when
// it boots.
func NewPool(sim *simclock.Sim, name string, cfg ElasticConfig, machineOpts []vmslot.Option, opts ...QueueOption) *Queue {
	cfg.setDefaults()
	q := NewQueue(sim, name, 0, nil, opts...)
	q.elastic = &supply{
		ElasticConfig: cfg,
		machineOpts:   machineOpts,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	q.idleAt = make(map[*Node]time.Time)
	return q
}

// bootDeficit launches cold starts to cover need nodes, counting boots
// already in flight and never exceeding the capacity bound.
func (q *Queue) bootDeficit(need int) {
	e := q.elastic
	need -= e.booting
	if headroom := e.MaxNodes - len(q.nodes) - e.booting; need > headroom {
		need = headroom
	}
	for i := 0; i < need; i++ {
		q.bootNode()
	}
}

func (q *Queue) bootNode() {
	e := q.elastic
	e.booting++
	gen := q.gen
	lat := e.ColdStart
	if j := e.ColdStartJitter; j > 0 {
		lat += time.Duration(e.rng.Int63n(int64(j) + 1))
	}
	q.sim.AfterFunc(lat, func() {
		if gen != q.gen {
			return // the queue crashed while booting; the instance is lost
		}
		e.booting--
		n := &Node{
			Name: fmt.Sprintf("%s-en%02d", q.name, e.bootSeq),
			CPU:  vmslot.NewMachine(q.sim, e.machineOpts...),
		}
		e.bootSeq++
		q.nodes = append(q.nodes, n)
		q.nfree++
		q.noteIdle(n)
		if len(q.pending) > 0 {
			q.schedulePass()
		}
	})
}

// noteIdle stamps a node free-at-now and arms the scale-down timer:
// if the node is still idle (same stamp) when the warm window closes,
// it is reclaimed. Reuse re-stamps, which invalidates older timers.
func (q *Queue) noteIdle(n *Node) {
	now := q.sim.Now()
	q.idleAt[n] = now
	gen := q.gen
	q.sim.AfterFunc(q.elastic.warmWindow, func() {
		if gen != q.gen {
			return
		}
		at, ok := q.idleAt[n]
		if !ok || !at.Equal(now) {
			return // reused (or reclaimed) since; a fresher timer owns it
		}
		if len(q.pending) > 0 {
			// Demand is waiting: keep the node warm and re-arm rather
			// than reclaim capacity the next pass will grab.
			q.noteIdle(n)
			return
		}
		q.reclaim(n)
	})
}

func (q *Queue) reclaim(n *Node) {
	delete(q.idleAt, n)
	for i, m := range q.nodes {
		if m == n {
			q.nodes = append(q.nodes[:i], q.nodes[i+1:]...)
			break
		}
	}
	q.nfree--
}

// deprovision drops the whole tenancy of a crashed elastic queue:
// every provisioned node and every boot in flight.
func (q *Queue) deprovision() {
	q.nodes = nil
	q.nfree = 0
	q.elastic.booting = 0
	q.idleAt = make(map[*Node]time.Time)
}
