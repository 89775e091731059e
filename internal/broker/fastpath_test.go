package broker

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// probeGrid builds a broker (no information service, so discovery is
// free) over sites whose direct-query cost is qc(i), for the probe
// timing tests.
func probeGrid(nSites int, cfg Config, qc func(i int) time.Duration) (*simclock.Sim, *Broker) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim = sim
	b := New(cfg)
	for i := 0; i < nSites; i++ {
		b.RegisterSite(site.New(sim, site.Config{
			Name:      fmt.Sprintf("site%02d", i),
			Nodes:     1,
			Network:   netsim.Loopback(),
			Costs:     site.DefaultCosts(),
			QueryCost: qc(i),
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
	b.matchPass(h, nil, func(c []candidate) { cands, done = c, true })
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
	b := New(Config{Sim: sim})
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
// lasts the sum of per-site round trips.
func TestSerialProbeCostsSumOfRTTs(t *testing.T) {
	const n = 20
	qc := func(i int) time.Duration { return time.Duration(i+1) * 100 * time.Millisecond }
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += qc(i)
	}
	sim, b := probeGrid(n, Config{}, qc)
	h, cands := runSelection(t, sim, b, &jdl.Job{Executable: "x"})
	if len(cands) != n {
		t.Fatalf("got %d candidates, want %d", len(cands), n)
	}
	if h.Phases.Selection != sum {
		t.Fatalf("serial selection took %v, want sum of RTTs %v", h.Phases.Selection, sum)
	}
}

// TestParallelProbeCostsMaxOfRTTs is the fast-path acceptance test:
// with parallel probing enabled, a 20-site selection lasts the maximum
// site round trip, not the sum.
func TestParallelProbeCostsMaxOfRTTs(t *testing.T) {
	const n = 20
	qc := func(i int) time.Duration { return time.Duration(i+1) * 100 * time.Millisecond }
	max := qc(n - 1)
	sim, b := probeGrid(n, Config{ProbeWidth: -1}, qc)
	h, cands := runSelection(t, sim, b, &jdl.Job{Executable: "x"})
	if len(cands) != n {
		t.Fatalf("got %d candidates, want %d", len(cands), n)
	}
	const epsilon = time.Millisecond
	if d := h.Phases.Selection - max; d < -epsilon || d > epsilon {
		t.Fatalf("parallel selection took %v, want max of RTTs %v (±%v)", h.Phases.Selection, max, epsilon)
	}
}

// TestBoundedProbeWidth checks the middle ground: width w costs at
// most ceil(n/w) probes' worth of the slowest sites and at least the
// single slowest probe.
func TestBoundedProbeWidth(t *testing.T) {
	const n, w = 12, 4
	qc := func(i int) time.Duration { return 200 * time.Millisecond }
	sim, b := probeGrid(n, Config{ProbeWidth: w}, qc)
	h, _ := runSelection(t, sim, b, &jdl.Job{Executable: "x"})
	want := time.Duration(n/w) * 200 * time.Millisecond // equal probes split evenly
	if h.Phases.Selection != want {
		t.Fatalf("width-%d selection took %v, want %v", w, h.Phases.Selection, want)
	}
}

// TestProbeWidthPreservesCandidates verifies parallel probing is a pure
// latency optimization: with deterministic tie-breaking, every width
// yields the same candidate ranking.
func TestProbeWidthPreservesCandidates(t *testing.T) {
	const n = 9
	qc := func(i int) time.Duration { return time.Duration(n-i) * 50 * time.Millisecond }
	names := func(width int) []string {
		sim, b := probeGrid(n, Config{Deterministic: true, ProbeWidth: width}, qc)
		_, cands := runSelection(t, sim, b, &jdl.Job{Executable: "x"})
		out := make([]string, len(cands))
		for i, c := range cands {
			out[i] = fmt.Sprintf("%s/%d/%d", c.site.Name(), c.free, c.queued)
		}
		return out
	}
	serial := names(0)
	for _, width := range []int{2, 4, -1} {
		got := names(width)
		if fmt.Sprint(got) != fmt.Sprint(serial) {
			t.Fatalf("width %d candidates %v differ from serial %v", width, got, serial)
		}
	}
}

func TestLeaseQueue(t *testing.T) {
	var q leaseQueue
	t0 := time.Unix(0, 0)

	q.push(t0.Add(30*time.Second), 2)
	q.push(t0.Add(30*time.Second), 1) // same expiry: merges into one batch
	if len(q.entries) != 1 || q.prune(t0) != 3 {
		t.Fatalf("after merged push: entries=%d count=%d", len(q.entries), q.count)
	}
	q.push(t0.Add(60*time.Second), 2)
	if got := q.prune(t0.Add(30 * time.Second)); got != 2 {
		t.Fatalf("after first expiry: count=%d, want 2", got)
	}
	q.push(t0.Add(90*time.Second), 3)
	q.drop(4) // spans the newest batch (3) into the older one (1 of 2)
	if got := q.prune(t0.Add(30 * time.Second)); got != 1 {
		t.Fatalf("after drop: count=%d, want 1", got)
	}
	if got := q.prune(t0.Add(2 * time.Minute)); got != 0 {
		t.Fatalf("after full expiry: count=%d, want 0", got)
	}
	if len(q.entries) != 0 || q.head != 0 {
		t.Fatalf("queue not reset: entries=%d head=%d", len(q.entries), q.head)
	}
	q.drop(5) // dropping from an empty queue is a no-op
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
			RunCB: simclock.Blocking(g.sim, func(ctx *batch.ExecCtx) { ctx.SleepOrKilled(30 * time.Minute) }),
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
