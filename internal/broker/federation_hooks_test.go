package broker

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// Two brokers leasing in the same tick must not expire in the same
// tick when LeaseJitter is on — synchronized expiries would re-probe
// the grid in lockstep (a probe storm).
func TestLeaseJitterDesynchronizesExpiry(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	mk := func(seed int64) *Broker {
		return New(Config{Sim: sim, Info: infosys.New(sim, 0), Seed: seed, LeaseDuration: 30 * time.Second, LeaseJitter: 0.5})
	}
	bA, bB := mk(1), mk(2)
	addSiteEntry(bA, "s00")
	addSiteEntry(bB, "s00")
	base := sim.Now().Add(30 * time.Second)
	bA.lease(&Handle{ID: "a-000001"}, "s00", 1)
	bB.lease(&Handle{ID: "b-000001"}, "s00", 1)
	sim.RunFor(time.Second)
	expA := bA.sites["s00"].leases.entries[0].exp
	expB := bB.sites["s00"].leases.entries[0].exp
	if expA.Equal(expB) {
		t.Fatalf("both leases expire at %v — jitter did not desynchronize", expA)
	}
	for name, exp := range map[string]time.Time{"A": expA, "B": expB} {
		if exp.Before(base) || exp.After(base.Add(15*time.Second)) {
			t.Fatalf("broker %s expiry %v outside [base, base+50%%)", name, exp)
		}
	}
}

// With jitter off, expiries must stay exact (and the rng stream
// untouched): single-broker benchmark artifacts depend on it.
func TestLeaseNoJitterExactExpiry(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 0)
	b := New(Config{Sim: sim, Info: info, Seed: 7, LeaseDuration: 30 * time.Second})
	before := b.rng.Uint64()
	b2 := New(Config{Sim: sim, Info: info, Seed: 7, LeaseDuration: 30 * time.Second})
	want := sim.Now().Add(30 * time.Second)
	addSiteEntry(b2, "s00")
	b2.lease(&Handle{ID: "cb-000001"}, "s00", 2)
	sim.RunFor(time.Second)
	if exp := b2.sites["s00"].leases.entries[0].exp; !exp.Equal(want) {
		t.Fatalf("expiry = %v, want exactly +30s", exp)
	}
	if b2.rng.Uint64() != before {
		t.Fatal("lease consumed rng with jitter disabled")
	}
}

// Jittered pushes can arrive out of expiry order; the queue must stay
// sorted so prune keeps popping from the head.
func TestLeaseQueueOutOfOrderPush(t *testing.T) {
	base := time.Time{}
	q := &leaseQueue{}
	h := &Handle{ID: "j"}
	q.push(h, base.Add(40*time.Second), 2)
	q.push(h, base.Add(10*time.Second), 1) // earlier than the tail
	q.push(h, base.Add(25*time.Second), 3)
	q.push(h, base.Add(25*time.Second), 1) // not the tail's expiry: a batch of its own
	if got := q.prune(base.Add(11 * time.Second)); got != 6 {
		t.Fatalf("after first expiry live = %d, want 6", got)
	}
	if got := q.prune(base.Add(26 * time.Second)); got != 2 {
		t.Fatalf("after mid expiries live = %d, want 2", got)
	}
	if got := q.prune(base.Add(41 * time.Second)); got != 0 {
		t.Fatalf("after all expiries live = %d, want 0", got)
	}
}

// A cooled-down quarantined site is half-open: of two matchmaking
// passes racing in the same tick, exactly one may probe it back in —
// the other must keep treating it as quarantined until the probe
// resolves.
func TestHalfOpenProbeSingleFlight(t *testing.T) {
	g := newGrid(t, 1, 1, Config{QuarantineThreshold: 1, QuarantineCooldown: time.Minute})
	g.b.quarantineNow("site00")
	g.sim.RunFor(2 * time.Minute) // past the cooldown: half-open
	job := &jdl.Job{Executable: "x", NodeNumber: 1}
	var got []int
	for i := 0; i < 2; i++ {
		g.b.SelectionPassStatsAsync(job, func(ps PassStats) { got = append(got, ps.Candidates) })
	}
	g.sim.RunFor(time.Minute)
	if len(got) != 2 {
		t.Fatalf("passes finished = %d, want 2", len(got))
	}
	if got[0]+got[1] != 1 {
		t.Fatalf("candidate counts = %v, want exactly one pass to see the half-open site", got)
	}
	// The answered probe released the gate: a later pass sees the site
	// again without waiting for a successful submission.
	var after int
	g.b.SelectionPassStatsAsync(job, func(ps PassStats) { after = ps.Candidates })
	g.sim.RunFor(time.Minute)
	if after != 1 {
		t.Fatalf("post-probe pass candidates = %d, want 1", after)
	}
}

// The half-open claim belongs to the pass that probes the site, not to
// every pass that enumerates it: a pass that reaches a cooled-down
// tripped site but does not probe it — the site fails the job's
// Requirements, or loses its place in the top K — must leave the gate
// open, or nothing ever clears it and the recovered site stays
// excluded forever. On the page scan, the bounded scan and the scan
// of a delta-subscribed broker's pinned snapshots.
func TestHalfOpenClaimNotLeakedByUnprobedSite(t *testing.T) {
	picky := mustParseJob(t, `Executable = "x"; Requirements = other.FreeCPUs > 1000;`)
	rankLast := mustParseJob(t, `Executable = "x"; Rank = 0 - other.FreeCPUs;`) // site00 has the most CPUs
	plain := &jdl.Job{Executable: "x", NodeNumber: 1}
	for _, tc := range []struct {
		name      string
		cfg       Config
		subscribe bool
		first     *jdl.Job
	}{
		{"streamed/fails-requirements", Config{}, false, picky},
		{"topk/fails-requirements", Config{TopK: 1}, false, picky},
		{"topk/falls-out-of-heap", Config{TopK: 1}, false, rankLast},
		{"incremental/fails-requirements", Config{}, true, picky},
		{"incremental/falls-out-of-walk", Config{TopK: 1}, true, rankLast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.QuarantineThreshold, tc.cfg.QuarantineCooldown = 1, time.Minute
			sim := simclock.NewSim(time.Time{})
			info := infosys.New(sim, 500*time.Millisecond)
			if tc.subscribe {
				info.SetDeltaLog(64)
			}
			tc.cfg.Sim, tc.cfg.Info = sim, info
			b := New(tc.cfg)
			for i, nodes := range []int{4, 1} {
				b.RegisterSite(site.New(sim, site.Config{
					Name: fmt.Sprintf("site%02d", i), Nodes: nodes, Network: netsim.CampusGrid(),
					Costs: site.DefaultCosts(), PublishInterval: 10000 * time.Hour,
				}))
			}
			sim.RunFor(time.Second)
			b.quarantineNow("site00")
			sim.RunFor(2 * time.Minute) // past the cooldown: half-open

			pass := func(job *jdl.Job) (ps PassStats) {
				b.SelectionPassStatsAsync(job, func(s PassStats) { ps = s })
				sim.RunFor(time.Minute)
				return ps
			}
			if ps := pass(tc.first); ps.Unavailable != 0 {
				t.Fatalf("first pass: %+v, want the half-open site admitted", ps)
			}
			if b.sites["site00"].health.probing {
				t.Fatal("a pass that did not probe site00 left its half-open gate claimed")
			}
			sim.RunFor(24 * time.Hour)
			want := 2
			if tc.cfg.TopK > 0 {
				want = tc.cfg.TopK
			}
			if ps := pass(plain); ps.Unavailable != 0 || ps.Candidates != want {
				t.Fatalf("a day later: %+v, want %d candidates and nothing unavailable", ps, want)
			}
		})
	}
}

// Broker names prefix job IDs so two federated brokers' submissions
// never collide in a merged trace.
func TestBrokerNamePrefixesJobIDs(t *testing.T) {
	g := newGrid(t, 1, 1, Config{Name: "bA"})
	h, err := g.b.Submit(batchJob(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != "bA-000001" {
		t.Fatalf("ID = %q, want bA-000001", h.ID)
	}
	g.sim.RunFor(time.Hour)
}
