package broker

import (
	"testing"
	"time"

	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
)

// Two brokers leasing in the same tick must not expire in the same
// tick when LeaseJitter is on — synchronized expiries would re-probe
// the grid in lockstep (a probe storm).
func TestLeaseJitterDesynchronizesExpiry(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	mk := func(seed int64) *Broker {
		return New(Config{Sim: sim, Seed: seed, LeaseDuration: 30 * time.Second, LeaseJitter: 0.5})
	}
	bA, bB := mk(1), mk(2)
	base := sim.Now().Add(30 * time.Second)
	bA.lease(&Handle{ID: "a-000001"}, "s00", 1)
	bB.lease(&Handle{ID: "b-000001"}, "s00", 1)
	sim.RunFor(time.Second)
	expA := bA.leases["s00"].entries[0].exp
	expB := bB.leases["s00"].entries[0].exp
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
	b := New(Config{Sim: sim, Seed: 7, LeaseDuration: 30 * time.Second})
	before := b.rng.Uint64()
	b2 := New(Config{Sim: sim, Seed: 7, LeaseDuration: 30 * time.Second})
	want := sim.Now().Add(30 * time.Second)
	b2.lease(&Handle{ID: "cb-000001"}, "s00", 2)
	sim.RunFor(time.Second)
	if exp := b2.leases["s00"].entries[0].exp; !exp.Equal(want) {
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
	q.push(base.Add(40*time.Second), 2)
	q.push(base.Add(10*time.Second), 1) // earlier than the tail
	q.push(base.Add(25*time.Second), 3)
	q.push(base.Add(25*time.Second), 1) // merges mid-window batch? no: tail merge only when equal to newest
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
