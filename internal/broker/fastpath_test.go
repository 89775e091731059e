package broker

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// probeGrid builds a broker (over a zero-latency information service,
// so discovery is free) over sites whose network round trip is rtt(i),
// for the probe timing tests.
func probeGrid(nSites int, cfg Config, rtt func(i int) time.Duration) (*simclock.Sim, *Broker) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim, cfg.Info = sim, infosys.New(sim, 0)
	b := New(cfg)
	for i := 0; i < nSites; i++ {
		b.RegisterSite(site.New(sim, site.Config{
			Name:    fmt.Sprintf("site%02d", i),
			Nodes:   1,
			Network: netsim.Profile{Name: "probe", OneWayDelay: rtt(i) / 2},
			Costs:   site.DefaultCosts(),
		}))
	}
	return sim, b
}

// runSelection executes one discovery+selection pass and returns the
// handle (phase durations) plus the candidates.
func runSelection(t *testing.T, sim *simclock.Sim, b *Broker, job *jdl.Job) (*Handle, []candidate) {
	t.Helper()
	h := &Handle{request: Request{Job: job}}
	var cands []candidate
	done := false
	b.matchPass(h, func(c []candidate) { cands, done = c, true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("selection pass did not complete")
	}
	return h, cands
}

// TestRankEvalErrorExcludesSite is the regression test for the
// silent-rank-zero bug: a site where the Rank expression cannot be
// evaluated must be excluded from the candidate set, exactly like a
// site failing Requirements — not kept with rank 0.
func TestRankEvalErrorExcludesSite(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	b := New(Config{Sim: sim, Info: infosys.New(sim, 0)})
	b.RegisterSite(site.New(sim, site.Config{
		Name: "withscore", Nodes: 1, Network: netsim.Loopback(), Costs: site.DefaultCosts(),
		Attrs: map[string]any{"Score": 5},
	}))
	b.RegisterSite(site.New(sim, site.Config{
		Name: "noscore", Nodes: 1, Network: netsim.Loopback(), Costs: site.DefaultCosts(),
	}))
	job, err := jdl.ParseJob(`Executable = "x"; Rank = other.Score;`)
	if err != nil {
		t.Fatal(err)
	}
	_, cands := runSelection(t, sim, b, job)
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1 (rank-error site excluded)", len(cands))
	}
	if got := cands[0].site.Name(); got != "withscore" {
		t.Fatalf("kept %q, want withscore", got)
	}
}

// TestSerialProbeCostsSumOfRTTs pins the default (paper-faithful)
// selection cost: sites are probed one after another, so the phase
// lasts the sum of per-site round trips, each plus the gatekeeper's
// fixed 130 ms query processing.
func TestSerialProbeCostsSumOfRTTs(t *testing.T) {
	const n = 20
	rtt := func(i int) time.Duration { return time.Duration(i+1) * 100 * time.Millisecond }
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += rtt(i) + 130*time.Millisecond
	}
	sim, b := probeGrid(n, Config{}, rtt)
	h, cands := runSelection(t, sim, b, &jdl.Job{Executable: "x"})
	if len(cands) != n {
		t.Fatalf("got %d candidates, want %d", len(cands), n)
	}
	if h.Phases.Selection != sum {
		t.Fatalf("serial selection took %v, want sum of RTTs %v", h.Phases.Selection, sum)
	}
}

func TestLeaseQueue(t *testing.T) {
	var q leaseQueue
	t0 := time.Unix(0, 0)
	a, b, c := &Handle{ID: "a"}, &Handle{ID: "b"}, &Handle{ID: "c"}

	q.push(a, t0.Add(30*time.Second), 2)
	q.push(a, t0.Add(30*time.Second), 1) // same owner and expiry: merges into one batch
	q.push(b, t0.Add(30*time.Second), 1) // another owner's lease is a batch of its own
	if len(q.entries) != 2 || q.prune(t0) != 4 {
		t.Fatalf("after pushes: entries=%d count=%d", len(q.entries), q.count)
	}
	q.push(b, t0.Add(60*time.Second), 2)
	q.push(b, t0.Add(75*time.Second), 1)
	if got := q.prune(t0.Add(30 * time.Second)); got != 3 {
		t.Fatalf("after first expiry: count=%d, want 3", got)
	}
	q.push(c, t0.Add(90*time.Second), 3)
	now := t0.Add(40 * time.Second)
	q.drop(b, now, 2) // b's batches sit behind c's newer one; only b's shrink, newest first
	if got := q.prune(now); got != 4 || q.entries[q.head].n != 1 || q.entries[q.head+1].n != 0 {
		t.Fatalf("after b's drop: count=%d, want c's 3 and b's oldest 1", got)
	}
	q.drop(a, now, 5) // a's leases expired: nothing of a's is left to drop
	if got := q.prune(now); got != 4 {
		t.Fatalf("after a's expired drop: count=%d, want 4", got)
	}
	q.drop(c, now, 3) // the tail empties: c's batch and b's emptied one behind it go
	if got := q.prune(now); got != 1 || len(q.entries)-q.head != 1 {
		t.Fatalf("after c's drop: count=%d batches=%d, want b's 1 lease in 1 batch", got, len(q.entries)-q.head)
	}
	if got := q.prune(t0.Add(2 * time.Minute)); got != 0 {
		t.Fatalf("after full expiry: count=%d, want 0", got)
	}
	if len(q.entries) != 0 || q.head != 0 {
		t.Fatalf("queue not reset: entries=%d head=%d", len(q.entries), q.head)
	}
	q.drop(a, now, 5) // dropping from an empty queue is a no-op
	if q.count != 0 {
		t.Fatalf("drop on empty queue changed count to %d", q.count)
	}
}

// decayingFair is a FairShare fake whose priorities decay on every
// Priority call — like the real manager's half-life decay, but
// compressed so that any implementation reading priorities inside a
// sort comparator sees different values across comparisons.
type decayingFair struct {
	prio map[string]float64
}

func (f *decayingFair) Priority(name string) float64 {
	p, ok := f.prio[name]
	if !ok {
		p = 1
	}
	f.prio[name] = p * 0.5
	return p
}

func (f *decayingFair) Allocate(jobID, userName string, cpus int, class fairshare.Class, pl int) error {
	return nil
}
func (f *decayingFair) Reclass(jobID string, class fairshare.Class, pl int) error { return nil }
func (f *decayingFair) Release(jobID string)                                      {}
func (f *decayingFair) SetTotal(cpus int)                                         {}

// TestDispatchPendingSnapshotsPriorities is the regression test for
// the comparator-priority bug: dispatch order must come from one
// consistent priority snapshot even when priorities decay between
// reads. Submission order is worst-first, so only priority ordering —
// not queue stability — can produce the expected order.
func TestDispatchPendingSnapshotsPriorities(t *testing.T) {
	fair := &decayingFair{prio: map[string]float64{"worst": 9, "mid": 3, "best": 1}}
	// The retry interval is long so every dispatch round sees the full
	// pending queue: each round then reads every user exactly once and
	// the decay preserves their relative order across rounds.
	g := newGrid(t, 1, 1, Config{RetryInterval: 10 * time.Minute, Fair: fair})

	// Saturate the node and the site queue so new batch jobs pend in
	// the broker.
	g.b.Submit(batchJob(30 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	for i := 0; i < 2; i++ {
		g.sites[0].Queue().Submit(batch.Request{
			ID: fmt.Sprintf("fill%d", i), Nodes: 1,
			RunCB: holdCB(30 * time.Minute),
		})
	}
	g.sim.RunFor(time.Minute)

	var handles []*Handle
	var order []string
	for _, user := range []string{"worst", "mid", "best"} {
		user := user
		h, err := g.b.Submit(Request{Job: &jdl.Job{Executable: user, NodeNumber: 1}, User: user, CPU: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		h.FirstOutput.OnFire(func() { order = append(order, user) })
		handles = append(handles, h)
		g.sim.RunFor(5 * time.Second) // route and pend, but no retry rounds yet
	}
	if g.b.PendingBatch() != 3 {
		t.Fatalf("pending = %d, want 3", g.b.PendingBatch())
	}
	g.sim.RunFor(6 * time.Hour)
	for i, h := range handles {
		if h.State() != Done {
			t.Fatalf("job %d state = %v err = %v", i, h.State(), h.Err())
		}
	}
	want := []string{"best", "mid", "worst"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}
