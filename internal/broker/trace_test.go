package broker

// End-to-end tests of the broker's trace instrumentation: the ordered
// event logs of DESIGN §3d, checked against the trace package's
// invariants on logs produced by real runs (not synthetic fixtures).

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/fairshare"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// tracedGrid is newGrid with an enabled tracer on the simulation
// clock wired into the broker (and, via RegisterSite, every site).
func tracedGrid(t *testing.T, nSites, nodesPerSite int, cfg Config) (*grid, *trace.Tracer) {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	tr := trace.New(sim.Now)
	info := infosys.New(sim, 500*time.Millisecond)
	fair := fairshare.New(sim, fairshare.Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
	cfg.Sim = sim
	cfg.Info = info
	cfg.Trace = tr
	if cfg.Fair == nil {
		cfg.Fair = fair
	}
	b := New(cfg)
	g := &grid{sim: sim, info: info, fair: fair, b: b}
	for i := 0; i < nSites; i++ {
		st := site.New(sim, site.Config{
			Name:     fmt.Sprintf("site%02d", i),
			Nodes:    nodesPerSite,
			Network:  netsim.CampusGrid(),
			Costs:    site.DefaultCosts(),
			LRMCycle: 2 * time.Second,
		})
		b.RegisterSite(st)
		g.sites = append(g.sites, st)
	}
	return g, tr
}

// assertOrdered checks that the job's log contains the wanted kinds as
// a subsequence, in order.
func assertOrdered(t *testing.T, events []trace.Event, job string, want []trace.Kind) {
	t.Helper()
	i := 0
	for _, e := range events {
		if e.Job != job || i >= len(want) {
			continue
		}
		if e.Kind == want[i] {
			i++
		}
	}
	if i != len(want) {
		var got []string
		for _, e := range events {
			if e.Job == job {
				got = append(got, e.Kind.String())
			}
		}
		t.Fatalf("missing %s (matched %d/%d); job log: %v", want[i], i, len(want), got)
	}
}

// TestTraceExclusiveHappyPath — an exclusive interactive job's log
// reads Submitted -> Matched -> CommitSent -> Committed -> Started ->
// Done, the lease acquire/release pair balances, and the full log
// passes both Check and the drained-grid CheckComplete.
func TestTraceExclusiveHappyPath(t *testing.T) {
	g, tr := tracedGrid(t, 2, 1, Config{})
	h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	events := tr.Events()
	assertOrdered(t, events, h.ID, []trace.Kind{
		trace.Submitted, trace.Matched, trace.LeaseAcquired, trace.CommitSent,
		trace.Committed, trace.Started, trace.Done, trace.LeaseReleased,
	})
	if v := trace.CheckComplete(events); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	tls := trace.Timelines(events)
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	l := tls[0].Latencies()
	if l.Match <= 0 || l.Startup <= 0 || l.Total <= 0 {
		t.Fatalf("degenerate latencies: %+v", l)
	}
	if l.Recovery != 0 || l.Resubmits != 0 {
		t.Fatalf("clean run shows recovery: %+v", l)
	}
}

// TestTraceBatchViaAgent — a batch job served through a glide-in
// agent. The agent's own LRM submission contributes 2PC events labeled
// by its queue handle (no Submitted event), which must not trip
// CheckComplete's drained-grid rule.
func TestTraceBatchViaAgent(t *testing.T) {
	g, tr := tracedGrid(t, 1, 1, Config{})
	h, err := g.b.Submit(batchJob(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(30 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	events := tr.Events()
	assertOrdered(t, events, h.ID, []trace.Kind{
		trace.Submitted, trace.Matched, trace.Started, trace.Done,
	})
	if v := trace.CheckComplete(events); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// TestTraceCrashRecovery sweeps a site crash across the submission
// window (as TestCrashMidSubmissionNoDoubleAllocation does) and checks
// every resulting log against the structural invariants; at least one
// offset must exercise the Resubmitted path and one the SiteCrashed /
// LeaseDropped forgiveness path.
func TestTraceCrashRecovery(t *testing.T) {
	var sawResub, sawCrash bool
	for off := time.Second; off <= 12*time.Second; off += time.Second {
		g, tr := tracedGrid(t, 2, 1, Config{Deterministic: true})
		h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		g.sim.AfterFunc(off, g.sites[0].Crash)
		g.sim.AfterFunc(2*time.Minute, g.sites[0].Restart)
		g.sim.RunFor(30 * time.Minute)

		if !h.State().Terminal() {
			t.Fatalf("off=%v: job not terminal: %v", off, h.State())
		}
		events := tr.Events()
		if v := trace.CheckComplete(events); len(v) != 0 {
			t.Fatalf("off=%v: invariant violations: %v", off, v)
		}
		for _, e := range events {
			switch e.Kind {
			case trace.Resubmitted:
				if e.Job == h.ID {
					sawResub = true
				}
			case trace.SiteCrashed:
				sawCrash = true
			}
		}
	}
	if !sawCrash {
		t.Fatal("no offset recorded a SiteCrashed event")
	}
	if !sawResub {
		t.Fatal("no offset exercised the Resubmitted path")
	}
}

// TestTraceQuarantineEvents — repeated submission failures against a
// dead site must show up as a Quarantined event (and Unquarantined
// after readmission), cross-referenced into the victim's timeline.
func TestTraceQuarantineEvents(t *testing.T) {
	g, tr := tracedGrid(t, 2, 1, Config{Deterministic: true, RetryInterval: 30 * time.Second})
	g.sites[0].Crash()
	h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.AfterFunc(20*time.Minute, g.sites[0].Restart)
	g.sim.RunFor(time.Hour)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	var quarantined bool
	for _, e := range tr.Events() {
		if e.Kind == trace.Quarantined && e.Site == "site00" {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("no Quarantined event for the dead site")
	}
	if v := trace.Check(tr.Events()); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// benchTraceLifecycle drives one full exclusive interactive job from
// Submit to Done per iteration — the instrumented hot path: submit,
// matchmaking, lease, 2PC, start, finish.
func benchTraceLifecycle(b *testing.B, traced bool) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	cfg := Config{Sim: sim, Info: info}
	if traced {
		cfg.Trace = trace.New(sim.Now)
	}
	br := New(cfg)
	for i := 0; i < 20; i++ {
		br.RegisterSite(site.New(sim, site.Config{
			Name:    fmt.Sprintf("site%03d", i),
			Nodes:   4,
			Network: netsim.WideArea(),
			Costs:   site.DefaultCosts(),
			Attrs:   map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512 + i},
		}))
	}
	sim.RunFor(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := br.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
		if err != nil {
			b.Fatal(err)
		}
		sim.RunFor(time.Hour)
		if h.State() != Done {
			b.Fatalf("state = %v err = %v", h.State(), h.Err())
		}
	}
}

// BenchmarkTraceOverhead compares the submit-to-done hot path with the
// tracer disabled (nil — a single pointer check per event site) and
// enabled (every event recorded). The enabled/disabled delta is the
// tracing overhead; the CI-facing claim is <=5%.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchTraceLifecycle(b, false) })
	b.Run("enabled", func(b *testing.B) { benchTraceLifecycle(b, true) })
}
