// Package federation runs two or more brokers over one grid — shared
// sites, contended leases — or over disjoint grids joined by a
// supervisor relay, the multi-VO deployment the paper's Section 6
// sketches for CrossBroker.
//
// The peer protocol lives entirely on the simulation clock. A
// ResourceManager-style rule ships queued batch jobs to the
// least-loaded peer (or up to the supervisor) whenever the local
// pending depth exceeds LeasedCPUs + K. Each transfer is guarded by a
// transfer lease with at-most-once semantics:
//
//   - OffloadSent opens the lease at the origin; the job is out of the
//     origin's queue and nowhere else yet.
//   - A request lost to a peer-link outage or a dead receiver resolves
//     the lease as OffloadOrphaned("lost"): the job returns to the
//     origin queue. It never reached the peer, so requeueing is safe.
//   - OffloadAccepted moves ownership: the receiver re-routes the job
//     under its original ID and attempt count (no second Submitted).
//   - A lost acknowledgment orphans the lease ("ack-lost") but the
//     receiver KEEPS the job — after delivery, requeueing at the
//     origin would risk double execution. Reconciliation on heal
//     confirms the receiver's ownership and closes the lease.
//   - A receiver crash reclaims only jobs that are provably still
//     parked in its queue (Broker.WithdrawQueued): those go home as
//     OffloadOrphaned("peer-crash") and are resubmitted by the origin.
//     Anything already being scheduled rides out the crash where it
//     is — the crashed broker's scheduling plane restarts in place
//     (fast-restart semantics); only its federation plane is down for
//     the outage window.
//
// Lease-conflict safety between brokers racing the same site needs no
// extra machinery: the site's two-phase commit window is the arbiter
// (site.CommitStats.MaxInflight shows the race), losers back off with
// the broker's seeded retry jitter, and each broker's lease table only
// ever counts its own committed submissions.
//
// Split-brain: an InfosysPartition freezes each broker's infosys.View
// independently; every broker keeps scheduling against its frozen
// snapshot. On heal, Reconcile resolves the two kinds of disagreement
// deterministically (nodes and sites visited in sorted order): ack-lost
// transfer leases close against the receiver's acceptance record, and
// a broker's site quarantine is cleared when an alive peer holds a
// successful interaction newer than the breaker's trip.
package federation

import (
	"fmt"
	"sort"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// Config parametrizes a federation.
type Config struct {
	// Sim is the shared simulation clock.
	Sim *simclock.Sim
	// K is the offload headroom: a broker ships a queued job when its
	// pending depth (including the job in hand) exceeds LeasedCPUs+K.
	// Default 2.
	K int
	// Link shapes every peer-to-peer hop (transfer and ack). Default
	// netsim.WideArea — federated brokers live in different centers.
	Link netsim.Profile
	// JobBytes is the serialized size of one shipped job (sandbox
	// descriptor, not data): sets the transfer serialization cost on
	// Link. Default 64 KiB.
	JobBytes int
	// RelayRetry is how often a supervisor retries relaying parked
	// jobs when no child was eligible. Default 15 s.
	RelayRetry time.Duration
}

func (c *Config) setDefaults() {
	if c.K <= 0 {
		c.K = 2
	}
	if c.Link.Name == "" && c.Link.OneWayDelay == 0 && c.Link.BytesPerSec == 0 {
		c.Link = netsim.WideArea()
	}
	if c.JobBytes <= 0 {
		c.JobBytes = 64 << 10
	}
	if c.RelayRetry <= 0 {
		c.RelayRetry = 15 * time.Second
	}
}

// NodeConfig describes one member broker.
type NodeConfig struct {
	// Name must match the broker's Config.Name (it keys fault targeting
	// and transfer bookkeeping).
	Name string
	// Broker is the member's scheduling engine. Nil only for a pure
	// relay supervisor that owns no sites and adopts no jobs.
	Broker *broker.Broker
	// View is the member's private window onto the shared information
	// system (split-brain cuts it per broker). Optional.
	View *infosys.View
	// Trace receives this member's offload events (usually the same
	// tracer as the broker's, so the merged log is one file per node).
	Trace *trace.Tracer
	// Relay marks a supervisor that forwards transfers to the
	// least-loaded child instead of adopting them into its own broker.
	Relay bool
}

// transferLease is the origin-side record of an open transfer.
type transferLease struct {
	dst *Node
	// orphaned marks an ack-lost lease awaiting reconciliation; the
	// in-flight process has finished with it.
	orphaned bool
}

// acceptance is the receiver-side record of an adopted transfer — the
// evidence reconciliation and crash reclaim run on.
type acceptance struct {
	origin  *Node
	h       *broker.Handle // nil while a relay holds the job
	req     broker.Request
	attempt int
}

// shipment is one job moving between nodes.
type shipment struct {
	jr      *JobRef
	id      string
	req     broker.Request
	attempt int
	// h is the origin-side handle to requeue if the request is lost;
	// nil on relay legs (the relay re-parks instead).
	h *broker.Handle
	// exclude is the node a relay must not forward back to.
	exclude *Node
}

// Node is one federated broker.
type Node struct {
	fed      *Federation
	name     string
	b        *broker.Broker
	view     *infosys.View
	tr       *trace.Tracer
	relay    bool
	down     bool
	linkDown bool
	out      map[string]*transferLease
	accepted map[string]*acceptance
	relayQ   []*shipment
	relaying bool
}

// Name returns the member's name.
func (n *Node) Name() string { return n.name }

// Broker returns the member's broker (nil for a pure relay).
func (n *Node) Broker() *broker.Broker { return n.b }

// View returns the member's information-system view (may be nil).
func (n *Node) View() *infosys.View { return n.view }

// Down reports whether the member's federation plane is crashed.
func (n *Node) Down() bool { return n.down }

// OpenTransfers returns the number of unresolved transfer leases this
// node holds as origin (instrumentation: zero after drain+reconcile
// means no leaked transfer leases).
func (n *Node) OpenTransfers() int { return len(n.out) }

// JobRef tracks one job across ownership changes. The broker Handle a
// submission returns goes stale the moment the job is offloaded; the
// JobRef's Done trigger fires exactly once, when the job reaches a
// terminal state at whichever broker owns it then.
type JobRef struct {
	ID    string
	Done  *simclock.Trigger
	cur   *broker.Handle
	node  *Node
	fired bool
}

// Handle returns the currently owning broker handle (nil while the job
// is in flight between nodes or parked at a relay).
func (j *JobRef) Handle() *broker.Handle { return j.cur }

// Owner names the node currently responsible for the job.
func (j *JobRef) Owner() string {
	if j.node == nil {
		return ""
	}
	return j.node.name
}

// State reports the owning handle's state (broker.Pending while the
// job is between brokers).
func (j *JobRef) State() broker.State {
	if j.cur == nil {
		return broker.Pending
	}
	return j.cur.State()
}

// Err returns the terminal error, if any.
func (j *JobRef) Err() error {
	if j.cur == nil {
		return nil
	}
	return j.cur.Err()
}

func (j *JobRef) setCur(n *Node, h *broker.Handle) {
	j.node, j.cur = n, h
	if h == nil {
		return
	}
	h.Done.OnFire(func() {
		// Only the handle that still owns the job may complete it; a
		// stale origin handle firing after an offload is ignored.
		if j.cur == h && !j.fired {
			j.fired = true
			j.Done.Fire()
		}
	})
}

// Federation wires member brokers into one offloading mesh (or a
// supervisor tree when one member is marked Relay / SetSupervisor).
type Federation struct {
	sim    *simclock.Sim
	cfg    Config
	nodes  []*Node
	byName map[string]*Node
	super  *Node
	jobs   map[string]*JobRef
}

// New builds an empty federation.
func New(cfg Config) *Federation {
	cfg.setDefaults()
	return &Federation{
		sim:    cfg.Sim,
		cfg:    cfg,
		byName: make(map[string]*Node),
		jobs:   make(map[string]*JobRef),
	}
}

// AddNode registers a member and installs its queue-pressure offload
// hook. Members are kept name-sorted so every federation-wide sweep is
// deterministic.
func (f *Federation) AddNode(nc NodeConfig) *Node {
	n := &Node{
		fed:      f,
		name:     nc.Name,
		b:        nc.Broker,
		view:     nc.View,
		tr:       nc.Trace,
		relay:    nc.Relay,
		out:      make(map[string]*transferLease),
		accepted: make(map[string]*acceptance),
	}
	f.nodes = append(f.nodes, n)
	sort.Slice(f.nodes, func(i, j int) bool { return f.nodes[i].name < f.nodes[j].name })
	f.byName[n.name] = n
	if n.b != nil {
		n.b.SetOffloader(n.offload)
	}
	if nc.Relay {
		f.super = n
	}
	return n
}

// SetSupervisor names the hub of a star topology: every other member
// offloads to it, and it relays (Relay member) or re-balances
// (broker-backed member) to the least-loaded child.
func (f *Federation) SetSupervisor(name string) {
	f.super = f.byName[name]
}

// Nodes returns the members in name order.
func (f *Federation) Nodes() []*Node { return f.nodes }

// Names returns the member names in order (the injector's
// SetBrokerFaulter wants them).
func (f *Federation) Names() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.name
	}
	return out
}

// Submit routes a job through a member broker and returns a ref that
// survives offloads.
func (f *Federation) Submit(node string, req broker.Request) (*JobRef, error) {
	n := f.byName[node]
	if n == nil || n.b == nil {
		return nil, fmt.Errorf("federation: no broker %q", node)
	}
	h, err := n.b.Submit(req)
	if err != nil {
		return nil, err
	}
	jr := &JobRef{ID: h.ID, Done: f.sim.NewTrigger()}
	f.jobs[h.ID] = jr
	jr.setCur(n, h)
	return jr, nil
}

// ref returns the job's federation-wide ref, creating one lazily for
// jobs submitted directly through a member broker.
func (f *Federation) ref(n *Node, h *broker.Handle) *JobRef {
	jr := f.jobs[h.ID]
	if jr == nil {
		jr = &JobRef{ID: h.ID, Done: f.sim.NewTrigger()}
		f.jobs[h.ID] = jr
		jr.setCur(n, h)
	}
	return jr
}

// Job looks up a ref by ID.
func (f *Federation) Job(id string) *JobRef { return f.jobs[id] }

// offload is the hook the member broker consults before parking a
// batch job: true means the federation took the job.
func (n *Node) offload(h *broker.Handle) bool {
	if n.down || n.linkDown {
		return false
	}
	// The ResourceManager rule: pending depth including the job in
	// hand must exceed the leased capacity plus headroom K.
	if n.b.PendingBatch()+1 <= n.b.LeasedCPUs()+n.fed.cfg.K {
		return false
	}
	dst := n.fed.target(n)
	if dst == nil {
		return false
	}
	jr := n.fed.ref(n, h)
	n.send(&shipment{jr: jr, id: h.ID, req: h.Request(), attempt: h.Resubmissions(), h: h}, dst)
	return true
}

// target picks where a pressured node ships: the supervisor in a star,
// else the least-loaded strictly-less-loaded alive peer.
func (f *Federation) target(origin *Node) *Node {
	if f.super != nil && origin != f.super {
		s := f.super
		if s.down || s.linkDown {
			return nil
		}
		return s
	}
	dst := f.leastLoaded(origin, nil)
	if dst == nil || dst.b.PendingBatch() >= origin.b.PendingBatch() {
		return nil
	}
	return dst
}

// leastLoaded returns the alive, linked, broker-backed member with the
// shallowest queue, excluding origin and exclude; sorted order breaks
// ties so the choice is deterministic.
func (f *Federation) leastLoaded(origin, exclude *Node) *Node {
	var best *Node
	for _, p := range f.nodes {
		if p == origin || p == exclude || p.relay || p.b == nil || p.down || p.linkDown {
			continue
		}
		if best == nil || p.b.PendingBatch() < best.b.PendingBatch() {
			best = p
		}
	}
	return best
}

// send opens a transfer lease and runs the two-hop exchange (request,
// then ack) on the shaped peer link: one posted event to start it,
// then one timer event per hop.
func (n *Node) send(s *shipment, dst *Node) {
	n.out[s.id] = &transferLease{dst: dst}
	n.tr.Emit(trace.Event{Kind: trace.OffloadSent, Job: s.id, Site: n.name, Detail: dst.name})
	f := n.fed
	deliver := func(cont func()) {
		if n.down || n.linkDown || dst.down || dst.linkDown {
			// The request never arrived: the lease resolves and the job
			// is still exclusively the origin's — requeueing is safe.
			n.orphanHome(s, "lost")
			return
		}
		dst.accept(s, n)
		cont()
	}
	ack := func() {
		if n.down || n.linkDown || dst.down || dst.linkDown {
			// Ack lost AFTER delivery: the receiver owns the job, so the
			// origin must NOT requeue. The lease stays open (orphaned)
			// until reconciliation confirms the receiver's record.
			n.tr.Emit(trace.Event{Kind: trace.OffloadOrphaned, Job: s.id, Site: n.name, Detail: "ack-lost"})
			if l := n.out[s.id]; l != nil {
				l.orphaned = true
			}
			return
		}
		delete(n.out, s.id)
	}
	f.sim.Post(func() {
		f.sim.AfterFunc(f.cfg.Link.TransferTime(f.cfg.JobBytes), func() {
			deliver(func() {
				f.sim.AfterFunc(f.cfg.Link.RTT()/2, ack)
			})
		})
	})
}

// orphanHome resolves a lease whose request was lost: the job returns
// to the origin's queue (or relay queue).
func (n *Node) orphanHome(s *shipment, why string) {
	n.tr.Emit(trace.Event{Kind: trace.OffloadOrphaned, Job: s.id, Site: n.name, Detail: why})
	delete(n.out, s.id)
	if s.h != nil {
		s.jr.setCur(n, s.h)
		n.b.Requeue(s.h)
		return
	}
	// A relay leg: the relay still owns the job; park for retry.
	n.park(s)
}

// accept takes delivery: a broker-backed node adopts the job under its
// original ID and attempt count; a relay forwards it onward.
func (dst *Node) accept(s *shipment, from *Node) {
	dst.tr.Emit(trace.Event{Kind: trace.OffloadAccepted, Job: s.id, Site: from.name, Detail: dst.name})
	if dst.relay || dst.b == nil {
		dst.accepted[s.id] = &acceptance{origin: from, req: s.req, attempt: s.attempt}
		s.jr.setCur(dst, nil)
		dst.forward(&shipment{jr: s.jr, id: s.id, req: s.req, attempt: s.attempt, exclude: from})
		return
	}
	h, err := dst.b.SubmitTransferred(s.req, s.id, s.attempt)
	if err != nil {
		// The request was validated at original submission; re-validation
		// cannot fail, but fail safe: the job goes home.
		from.orphanHome(s, "rejected")
		return
	}
	dst.accepted[s.id] = &acceptance{origin: from, h: h, req: s.req, attempt: s.attempt}
	s.jr.setCur(dst, h)
}

// forward relays a shipment to the least-loaded child, or parks it.
func (n *Node) forward(s *shipment) {
	c := n.fed.leastLoaded(n, s.exclude)
	if c == nil {
		n.park(s)
		return
	}
	n.send(s, c)
}

// park queues a shipment at a relay and keeps one retry loop alive, a
// self-rescheduling timer chain: one posted event to start, one timer
// event per retry tick.
func (n *Node) park(s *shipment) {
	n.relayQ = append(n.relayQ, s)
	if n.relaying {
		return
	}
	n.relaying = true
	tick := func() bool { // one retry iteration; false ends the loop
		if n.down || n.linkDown {
			return len(n.relayQ) > 0
		}
		q := n.relayQ
		n.relayQ = nil
		for _, s := range q {
			// Retries may re-park into relayQ; the loop keeps going.
			s.exclude = nil // any child will do by now
			n.forward(s)
		}
		return len(n.relayQ) > 0
	}
	var loop func()
	loop = func() {
		n.fed.sim.AfterFunc(n.fed.cfg.RelayRetry, func() {
			if tick() {
				loop()
				return
			}
			n.relaying = false
		})
	}
	n.fed.sim.Post(loop)
}

// CrashBroker implements faultinject.BrokerFaulter: the member's
// federation plane dies for d. Peers reclaim the jobs it provably
// still held queued; everything else rides out the crash in place.
// Zero d leaves the node down until an explicit restart.
func (f *Federation) CrashBroker(name string, d time.Duration) bool {
	n := f.byName[name]
	if n == nil || n.down {
		return false
	}
	n.down = true
	f.reclaimFrom(n)
	if d > 0 {
		f.sim.AfterFunc(d, func() { f.RestartBroker(name) })
	}
	return true
}

// RestartBroker brings a crashed member back and reconciles.
func (f *Federation) RestartBroker(name string) {
	n := f.byName[name]
	if n == nil || !n.down {
		return
	}
	n.down = false
	f.Reconcile()
}

// CutPeerLink implements faultinject.BrokerFaulter: the member's peer
// link drops for d. In-flight transfers touching it are lost (the
// protocol orphans them); local scheduling is unaffected.
func (f *Federation) CutPeerLink(name string, d time.Duration) bool {
	n := f.byName[name]
	if n == nil || n.linkDown {
		return false
	}
	n.linkDown = true
	if d > 0 {
		f.sim.AfterFunc(d, func() {
			n.linkDown = false
			f.Reconcile()
		})
	}
	return true
}

// reclaimFrom returns a dead member's provably-queued adopted jobs to
// their origins. Sorted iteration keeps the reclaim order — and hence
// every downstream trace — deterministic.
func (f *Federation) reclaimFrom(dead *Node) {
	ids := make([]string, 0, len(dead.accepted))
	for id := range dead.accepted {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		acc := dead.accepted[id]
		var attempt int
		switch {
		case acc.h != nil:
			// Broker-backed member: WithdrawQueued is the ownership
			// test — false means the job is being (or was) scheduled
			// and must ride out the crash where it is.
			if !dead.b.WithdrawQueued(acc.h) {
				continue
			}
			attempt = acc.h.Resubmissions()
		default:
			// Relay member: the job is reclaimable only while parked in
			// the relay queue (an in-flight relay leg resolves itself).
			if !dead.unpark(id) {
				continue
			}
			attempt = acc.attempt
		}
		delete(dead.accepted, id)
		f.returnTo(acc.origin, dead, id, acc.req, attempt)
	}
}

// unpark removes a shipment from a relay queue by job ID.
func (n *Node) unpark(id string) bool {
	for i, s := range n.relayQ {
		if s.id == id {
			n.relayQ = append(n.relayQ[:i], n.relayQ[i+1:]...)
			return true
		}
	}
	return false
}

// returnTo hands a reclaimed job back to its origin.
func (f *Federation) returnTo(origin, dead *Node, id string, req broker.Request, attempt int) {
	origin.tr.Emit(trace.Event{Kind: trace.OffloadOrphaned, Job: id, Site: origin.name, Detail: "peer-crash"})
	delete(origin.out, id)
	jr := f.jobs[id]
	if origin.relay || origin.b == nil {
		s := &shipment{jr: jr, id: id, req: req, attempt: attempt, exclude: dead}
		if jr != nil {
			jr.setCur(origin, nil)
		}
		origin.forward(s)
		return
	}
	h, err := origin.b.SubmitTransferred(req, id, attempt)
	if err != nil || jr == nil {
		return
	}
	jr.setCur(origin, h)
}

// SetPartitioned implements faultinject.Partitioner for the whole
// federation: a cut freezes every member's view at once (each keeps
// scheduling against its own frozen snapshot); the heal reconciles.
func (f *Federation) SetPartitioned(cut bool) {
	for _, n := range f.nodes {
		if n.view != nil {
			n.view.SetPartitioned(cut)
		}
	}
	if !cut {
		f.Reconcile()
	}
}

// Reconcile resolves post-partition (or post-restart) disagreement
// deterministically: members and sites are visited in sorted order.
//
//  1. Ack-lost transfer leases close against the receiver's acceptance
//     record — the receiver owns the job, the origin drops the lease.
//  2. A member's site quarantine is cleared when an alive peer that is
//     not quarantining the site holds a successful interaction newer
//     than this member's breaker trip: the disagreement proves the
//     trip was partition noise, not site death.
func (f *Federation) Reconcile() {
	for _, n := range f.nodes {
		ids := make([]string, 0, len(n.out))
		for id, l := range n.out {
			if l.orphaned {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			l := n.out[id]
			if l.dst.accepted[id] != nil || f.jobs[id] != nil && f.jobs[id].node != n {
				delete(n.out, id)
			}
		}
	}
	for _, n := range f.nodes {
		if n.down || n.b == nil {
			continue
		}
		for _, siteName := range n.b.QuarantinedSites() {
			ev, ok := n.b.SiteEvidence(siteName)
			if !ok {
				continue
			}
			for _, p := range f.nodes {
				if p == n || p.down || p.b == nil {
					continue
				}
				pev, ok := p.b.SiteEvidence(siteName)
				if ok && !pev.Quarantined && pev.LastSuccess.After(ev.TrippedAt) {
					n.b.ClearQuarantine(siteName)
					break
				}
			}
		}
	}
}
