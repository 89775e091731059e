package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"crossbroker/internal/trace"
)

// TestChaosSweepDeterministic is the fault layer's acceptance check:
// the same seed must produce byte-identical results.
func TestChaosSweepDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Quick: true}
	a, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed produced different sweeps:\n%s\nvs\n%s", aj, bj)
	}
}

// TestChaosTracedSweepDeterministicJSONL is the tracer's acceptance
// check: two traced sweeps with the same seed must export
// byte-identical JSONL event logs.
func TestChaosTracedSweepDeterministicJSONL(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, Quick: true, Traced: true}
	export := func() []byte {
		pts, err := ChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces := make([]trace.Trace, len(pts))
		for i, p := range pts {
			traces[i] = p.Trace
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, traces); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("traced sweep exported no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different JSONL exports")
	}
}

// TestChaosTraceInvariants runs the checker over real sweep logs —
// clean as produced, and failing once hand-corrupted.
func TestChaosTraceInvariants(t *testing.T) {
	pts, err := ChaosSweep(ChaosConfig{Seed: 2006, Quick: true, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if v := trace.CheckComplete(p.Trace.Events); len(v) != 0 {
			t.Errorf("%s: %d violations, first: %s", p.Trace.Label, len(v), v[0])
		}
	}

	// Corruption 1: replay a lifecycle event for a job that already
	// reached its terminal state.
	events := append([]trace.Event(nil), pts[1].Trace.Events...)
	var victim string
	for _, e := range events {
		if (e.Kind == trace.Done || e.Kind == trace.Failed || e.Kind == trace.Aborted) && e.Job != "" {
			victim = e.Job
			break
		}
	}
	if victim == "" {
		t.Fatal("no terminal job in the chaotic cell")
	}
	last := events[len(events)-1].Seq
	bad := append(events, trace.Event{Seq: last + 1, Kind: trace.Started, Job: victim})
	if v := trace.Check(bad); len(v) == 0 {
		t.Error("checker accepted a post-terminal lifecycle event")
	}

	// Corruption 2: an acquire with no matching release dangles.
	bad = append(events, trace.Event{Seq: last + 1, Kind: trace.LeaseAcquired,
		Job: "ghost", Site: "s00", N: 1})
	if v := trace.Check(bad); len(v) == 0 {
		t.Error("checker accepted a dangling lease")
	}
}

// TestChaosSweepRecovers checks the recovery invariants at every
// failure rate: all jobs reach a terminal state, no lease survives the
// drain, and faults actually land at nonzero rates.
func TestChaosSweepRecovers(t *testing.T) {
	pts, err := ChaosSweep(ChaosConfig{Seed: 2006, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2 (quick sweep)", len(pts))
	}
	for _, p := range pts {
		if p.Done+p.Aborted != p.Submitted {
			t.Errorf("rate %.2g: %d done + %d aborted != %d submitted (non-terminal jobs)",
				p.CrashRate, p.Done, p.Aborted, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			t.Errorf("rate %.2g: %d leases leaked", p.CrashRate, p.LeakedLeases)
		}
	}
	calm, chaotic := pts[0], pts[1]
	if calm.CrashRate != 0 || calm.Injected != 0 {
		t.Fatalf("baseline point not fault-free: rate %.2g injected %d",
			calm.CrashRate, calm.Injected)
	}
	if calm.Done != calm.Submitted || calm.Resubmissions != 0 {
		t.Errorf("fault-free grid lost jobs: %+v", calm)
	}
	if chaotic.Injected == 0 {
		t.Error("chaotic point injected no faults")
	}
	if s := RenderChaos(pts); s == "" {
		t.Error("empty render")
	}
}

// TestChaosSweepElasticRecovers is the acceptance check for the
// elastic node supply under fire: with half the sites running the
// cloud-style elastic queue, every job still reaches a terminal state,
// the sweep stays deterministic, and — the 2PC/lease contract — zero
// leases leak even when crashes land during cold boots and warm-pool
// reclaims.
func TestChaosSweepElasticRecovers(t *testing.T) {
	cfg := ChaosConfig{Seed: 2006, Quick: true, elastic: true, Delta: true}
	pts, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !p.Elastic {
			t.Fatalf("point not marked elastic: %+v", p)
		}
		if p.Done+p.Aborted != p.Submitted {
			t.Errorf("rate %.2g: %d done + %d aborted != %d submitted",
				p.CrashRate, p.Done, p.Aborted, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			t.Errorf("rate %.2g: %d leases leaked through the elastic backend",
				p.CrashRate, p.LeakedLeases)
		}
	}
	if pts[1].Injected == 0 {
		t.Error("chaotic elastic point injected no faults")
	}
	// Determinism must survive the extra elastic timers (boot,
	// warm-window reclaim) because they all run on the seeded sim.
	again, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(pts)
	bj, _ := json.Marshal(again)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("elastic sweep not deterministic:\n%s\nvs\n%s", aj, bj)
	}
}
