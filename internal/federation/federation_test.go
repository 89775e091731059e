package federation

import (
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// member is a federated broker with one private site of the given node
// count ("bA-s00"); nodes 0 gives it none.
func member(name string, seed int64, nodes int) core.MemberSpec {
	m := core.MemberSpec{Name: name, Seed: seed}
	if nodes > 0 {
		m.Sites = []core.SiteSpec{{NameFormat: name + "-s%02d", Count: 1, Nodes: nodes, LRMCycle: 2 * time.Second}}
	}
	return m
}

// federate builds grid traced, over 500 ms indexes, and federates its
// members.
func federate(grid core.SystemConfig, cfg Config) (*core.System, *Federation) {
	grid.Trace = true
	grid.Index.Latency = 500 * time.Millisecond
	sys := core.NewSystem(grid)
	return sys, New(sys, cfg)
}

// mesh federates two brokers over one index; bA's private site has one
// node, bB's has bNodes.
func mesh(cfg Config, bcfg broker.Config, bNodes int) (*core.System, *Federation) {
	return federate(core.SystemConfig{Broker: bcfg,
		Members: []core.MemberSpec{member("bA", 0, 1), member("bB", 0, bNodes)}}, cfg)
}

// shared federates two brokers that register only the one shared
// 2-node site.
func shared(bcfg broker.Config) (*core.System, *Federation) {
	return federate(core.SystemConfig{Broker: bcfg,
		Sites:   []core.SiteSpec{{Name: "shared00", Nodes: 2, LRMCycle: 2 * time.Second}},
		Members: []core.MemberSpec{member("bA", 1, 0), member("bB", 2, 0)}}, Config{})
}

func batchReq(cpu time.Duration) broker.Request {
	return broker.Request{
		Job:  &jdl.Job{Executable: "app", NodeNumber: 1},
		User: "u",
		CPU:  cpu,
	}
}

// merged interleaves every node's log and fails the test on any
// cross-broker invariant violation.
func merged(t *testing.T, fed *Federation) trace.Trace {
	t.Helper()
	var traces []trace.Trace
	for _, n := range fed.Nodes() {
		traces = append(traces, n.Trace().Snapshot(n.Name()))
	}
	out := trace.MergeByTime(traces)
	if vs := trace.CheckComplete(out.Events); len(vs) > 0 {
		t.Fatalf("merged trace violations: %v", vs)
	}
	return out
}

func countKind(tr trace.Trace, k trace.Kind, detail string) int {
	n := 0
	for _, e := range tr.Events {
		if e.Kind == k && (detail == "" || e.Detail == detail) {
			n++
		}
	}
	return n
}

func assertDrained(t *testing.T, fed *Federation) {
	t.Helper()
	for _, n := range fed.Nodes() {
		if n.Broker() != nil {
			if l := n.Broker().LeasedCPUs(); l != 0 {
				t.Errorf("%s leaked %d leases", n.Name(), l)
			}
		}
		if o := n.OpenTransfers(); o != 0 {
			t.Errorf("%s leaked %d transfer leases", n.Name(), o)
		}
	}
}

// waves sends `first` jobs now (they fill the local site's node and
// LRM queue) and `second` more after `gap` (those find the site full,
// park in the broker queue and build the offload pressure). A single
// burst cannot build pressure: all its jobs probe the site before any
// commit lands, so they all commit into the site queue. The returned
// slice pointer is complete once the simulation has run past gap.
func waves(t *testing.T, sim *simclock.Sim, fed *Federation, node string, first, second int, gap, cpu time.Duration) *[]*JobRef {
	t.Helper()
	refs := &[]*JobRef{}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			jr, err := fed.Submit(node, batchReq(cpu))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			*refs = append(*refs, jr)
		}
	}
	submit(first)
	sim.AfterFunc(gap, func() { submit(second) })
	return refs
}

// An overloaded broker must ship queued jobs to the least-loaded peer
// and every job must finish exactly once somewhere in the mesh.
func TestOffloadRelievesQueuePressure(t *testing.T) {
	sys, fed := mesh(Config{K: 1}, broker.Config{}, 4)
	sim := sys.Sim

	refsP := waves(t, sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	sim.RunFor(2 * time.Hour)
	refs := *refsP

	for _, jr := range refs {
		if jr.State() != broker.Done {
			t.Fatalf("job %s: state %v err %v (owner %s)", jr.ID, jr.State(), jr.Err(), jr.Owner())
		}
	}
	mtr := merged(t, fed)
	if n := countKind(mtr, trace.OffloadAccepted, ""); n == 0 {
		t.Fatal("no transfer was accepted — queue pressure never offloaded")
	}
	shipped := 0
	for _, jr := range refs {
		if jr.Owner() == "bB" {
			shipped++
		}
	}
	if shipped == 0 {
		t.Fatal("no job finished at the peer")
	}
	assertDrained(t, fed)
}

// Two brokers racing the same site must be arbitrated by the site's
// 2PC commit window (visible as overlapping in-flight commits) with
// every job still executing exactly once.
func TestContendedSiteCommitWindowArbitrates(t *testing.T) {
	sys, fed := shared(broker.Config{})

	jrA, err := fed.Submit("bA", batchReq(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	jrB, err := fed.Submit("bB", batchReq(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(time.Hour)

	if jrA.State() != broker.Done || jrB.State() != broker.Done {
		t.Fatalf("states: A=%v B=%v", jrA.State(), jrB.State())
	}
	st := sys.Sites[0].Stats()
	if st.MaxInflight < 2 {
		t.Fatalf("MaxInflight = %d, want >= 2 (overlapping commit windows)", st.MaxInflight)
	}
	if st.Committed != 2 {
		t.Fatalf("site committed %d, want 2", st.Committed)
	}
	merged(t, fed)
	assertDrained(t, fed)
}

// A crashed receiver's still-queued adopted jobs must return to their
// origins ("peer-crash" orphans) and finish there exactly once; jobs
// past the queue ride the crash out in place.
func TestCrashReclaimReturnsQueuedJobs(t *testing.T) {
	sys, fed := mesh(Config{K: 1}, broker.Config{}, 1)
	sim := sys.Sim

	// Fill bB completely (node + LRM queue) for half an hour so an
	// offloaded job parks in its broker queue instead of starting.
	var blockers []*JobRef
	for i := 0; i < 3; i++ {
		jr, err := fed.Submit("bB", batchReq(30*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, jr)
	}
	refsP := waves(t, sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	// Let the second wave's transfers land and park, then kill bB's
	// federation plane.
	sim.RunFor(2 * time.Minute)
	if !fed.CrashBroker("bB", 0) {
		t.Fatal("CrashBroker refused")
	}
	sim.RunFor(4 * time.Hour)
	refs := *refsP

	for _, jr := range refs {
		if jr.State() != broker.Done {
			t.Fatalf("job %s: state %v (owner %s)", jr.ID, jr.State(), jr.Owner())
		}
		if jr.Owner() != "bA" {
			t.Fatalf("job %s finished at %s, want reclaimed to bA", jr.ID, jr.Owner())
		}
	}
	for _, jr := range blockers {
		if jr.State() != broker.Done {
			t.Fatalf("bB's own job rode the crash out badly: %v", jr.State())
		}
	}
	mtr := merged(t, fed)
	if n := countKind(mtr, trace.OffloadOrphaned, "peer-crash"); n == 0 {
		t.Fatal("no peer-crash orphan recorded")
	}
	assertDrained(t, fed)
}

// A transfer lost to a peer-link outage must be orphaned and requeued
// at the origin — the job never reached the peer, so the requeue
// cannot double-execute it.
func TestLostTransferRequeuesAtOrigin(t *testing.T) {
	// A 30 s one-way link makes the flight long enough to cut mid-air.
	sys, fed := mesh(Config{K: 1, Link: netsim.Profile{Name: "slow", OneWayDelay: 30 * time.Second}}, broker.Config{}, 4)
	sim := sys.Sim

	refsP := waves(t, sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	// Wave-2 offload decisions land just after 60 s; the flight takes
	// 30 s. Cutting bA's own peer link from 72 s to 132 s loses every
	// in-flight request.
	sim.AfterFunc(72*time.Second, func() { fed.CutPeerLink("bA", 60*time.Second) })
	sim.RunFor(3 * time.Hour)
	refs := *refsP

	for _, jr := range refs {
		if jr.State() != broker.Done {
			t.Fatalf("job %s: state %v (owner %s)", jr.ID, jr.State(), jr.Owner())
		}
	}
	mtr := merged(t, fed)
	if n := countKind(mtr, trace.OffloadOrphaned, "lost"); n == 0 {
		t.Fatal("no lost-transfer orphan recorded")
	}
	assertDrained(t, fed)
}

// When only the acknowledgment is lost, the receiver keeps the job
// (requeueing after delivery would risk double execution); the
// origin's dangling transfer lease closes at reconciliation.
func TestAckLostReceiverKeepsJob(t *testing.T) {
	// 10 s one-way: delivery at ~send+10 s, ack due ~send+20 s.
	sys, fed := mesh(Config{K: 1, Link: netsim.Profile{Name: "slow", OneWayDelay: 10 * time.Second}}, broker.Config{}, 4)
	sim := sys.Sim

	refsP := waves(t, sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	// Wave-2 transfers send at ~61 s, deliver at ~71 s and expect the
	// ack at ~81 s: a cut from 75 s to 105 s spares the request and
	// kills only the acknowledgment.
	sim.AfterFunc(75*time.Second, func() { fed.CutPeerLink("bA", 30*time.Second) })
	sim.RunFor(3 * time.Hour)
	refs := *refsP

	for _, jr := range refs {
		if jr.State() != broker.Done {
			t.Fatalf("job %s: state %v (owner %s)", jr.ID, jr.State(), jr.Owner())
		}
	}
	mtr := merged(t, fed)
	if n := countKind(mtr, trace.OffloadOrphaned, "ack-lost"); n == 0 {
		t.Fatal("no ack-lost orphan recorded")
	}
	// At least one job must have stayed with the receiver despite the
	// lost ack.
	kept := 0
	for _, jr := range refs {
		if jr.Owner() == "bB" {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("receiver kept no job after the lost ack")
	}
	// The link heal reconciled: no dangling transfer leases remain.
	assertDrained(t, fed)
}

// After a split brain, a quarantine tripped by partition noise must be
// cleared by a peer's fresher success evidence — without waiting out
// the cooldown. A peer that registers the site but never touched it
// has no such evidence, and the quarantine stands.
func TestSplitBrainQuarantineReconciled(t *testing.T) {
	for _, tc := range []struct {
		name     string
		peerRuns bool // bB runs a job on the site after bA's trip
	}{
		{"peer-succeeded-after-trip", true},
		{"peer-never-touched-site", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A long cooldown: only reconciliation can clear the quarantine.
			sys, fed := shared(broker.Config{QuarantineThreshold: 1, QuarantineCooldown: time.Hour})
			sim, site := sys.Sim, sys.Sites[0]
			bA := sys.Members[0].Broker

			// Split brain: the index freezes for both brokers; the site then
			// drops off the net long enough for bA to trip its breaker.
			fed.SetPartitioned(true)
			site.SetUnreachable(true)
			jrA, err := fed.Submit("bA", batchReq(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			sim.RunFor(2 * time.Minute)
			if got := bA.QuarantinedSites(); len(got) != 1 {
				t.Fatalf("bA quarantined %v, want [shared00]", got)
			}

			// The site recovers; bB (which never tripped) may interact with
			// it successfully, producing evidence newer than bA's trip.
			site.SetUnreachable(false)
			if tc.peerRuns {
				jrB, err := fed.Submit("bB", batchReq(time.Minute))
				if err != nil {
					t.Fatal(err)
				}
				sim.RunFor(5 * time.Minute)
				if jrB.State() != broker.Done {
					t.Fatalf("bB probe job: %v", jrB.State())
				}
			} else {
				sim.RunFor(5 * time.Minute)
			}

			// Heal: reconciliation clears bA's stale quarantine immediately,
			// and only on the peer's evidence.
			fed.SetPartitioned(false)
			wantQuarantined, wantReconciled := 0, 1
			if !tc.peerRuns {
				wantQuarantined, wantReconciled = 1, 0
			}
			if got := bA.QuarantinedSites(); len(got) != wantQuarantined {
				t.Fatalf("bA quarantines %v after reconcile, want %d site(s)", got, wantQuarantined)
			}
			sim.RunFor(2 * time.Hour)
			if jrA.State() != broker.Done {
				t.Fatalf("bA job after heal: %v (err %v)", jrA.State(), jrA.Err())
			}
			mtr := merged(t, fed)
			if n := countKind(mtr, trace.Unquarantined, "reconciled"); n != wantReconciled {
				t.Fatalf("reconciled unquarantines = %d, want %d", n, wantReconciled)
			}
			assertDrained(t, fed)
		})
	}
}

// Disjoint grids joined by a pure relay supervisor: pressure on one
// child flows up to the supervisor and down to the least-loaded other
// child, under the same at-most-once transfer protocol.
func TestSupervisorRelaysAcrossDisjointGrids(t *testing.T) {
	index := &core.IndexSpec{Latency: 500 * time.Millisecond}
	a, b := member("bA", 0, 1), member("bB", 0, 4)
	a.Index, b.Index = index, index
	sys, fed := federate(core.SystemConfig{Members: []core.MemberSpec{a, b}}, Config{K: 1, Supervisor: "sup"})
	sim := sys.Sim

	refsP := waves(t, sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	sim.RunFor(2 * time.Hour)
	refs := *refsP

	for _, jr := range refs {
		if jr.State() != broker.Done {
			t.Fatalf("job %s: state %v (owner %s)", jr.ID, jr.State(), jr.Owner())
		}
	}
	mtr := merged(t, fed)
	up, down := 0, 0
	for _, e := range mtr.Events {
		if e.Kind == trace.OffloadSent {
			switch {
			case e.Site == "bA" && e.Detail == "sup":
				up++
			case e.Site == "sup" && e.Detail == "bB":
				down++
			}
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("relay legs: up=%d down=%d, want both > 0", up, down)
	}
	crossed := 0
	for _, jr := range refs {
		if jr.Owner() == "bB" {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no job crossed the grids")
	}
	assertDrained(t, fed)
}

// Two identically seeded federations must produce byte-identical
// merged traces — the determinism contract the chaos sweep relies on.
func TestFederationDeterministic(t *testing.T) {
	run := func() trace.Trace {
		sys, fed := federate(core.SystemConfig{Broker: broker.Config{LeaseJitter: 0.5},
			Members: []core.MemberSpec{member("bA", 11, 1), member("bB", 22, 2)}}, Config{K: 1})
		sim := sys.Sim
		waves(t, sim, fed, "bA", 3, 3, time.Minute, 90*time.Second)
		sim.AfterFunc(70*time.Second, func() { fed.CrashBroker("bB", 5*time.Minute) })
		sim.RunFor(2 * time.Hour)
		return merged(t, fed)
	}
	a, b := run(), run()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.T != eb.T || ea.Kind != eb.Kind || ea.Job != eb.Job || ea.Site != eb.Site || ea.Detail != eb.Detail {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

// A link that sets only its per-message cost is a link, not the unset
// default: the cost delays every transfer it carries.
func TestLinkPerMessageCostKept(t *testing.T) {
	const cost = 30 * time.Second
	sys, fed := mesh(Config{K: 1, Link: netsim.Profile{PerMessageCost: cost}}, broker.Config{}, 4)
	waves(t, sys.Sim, fed, "bA", 3, 3, time.Minute, 2*time.Minute)
	sys.Run(2 * time.Hour)
	sent := make(map[string]time.Duration)
	accepted := 0
	for _, e := range merged(t, fed).Events {
		switch e.Kind {
		case trace.OffloadSent:
			sent[e.Job] = e.T
		case trace.OffloadAccepted:
			accepted++
			if d := e.T - sent[e.Job]; d < cost {
				t.Errorf("job %s accepted %v after it was sent, want >= %v", e.Job, d, cost)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no transfer was accepted")
	}
}
