package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"crossbroker/internal/trace"
)

// TestFederationSweepDeterministic is the federation's acceptance
// check: the same seed must produce byte-identical results, including
// the merged multi-broker event logs.
func TestFederationSweepDeterministic(t *testing.T) {
	cfg := FederationConfig{Seed: 7, Quick: true, Traced: true}
	export := func() ([]byte, []byte) {
		pts, err := FederationSweep(cfg)
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
		pj, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return pj, buf.Bytes()
	}
	aj, at := export()
	bj, bt := export()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed produced different sweeps:\n%s\nvs\n%s", aj, bj)
	}
	if len(at) == 0 {
		t.Fatal("traced sweep exported no events")
	}
	if !bytes.Equal(at, bt) {
		t.Fatal("same seed produced different merged JSONL exports")
	}
}

// TestFederationSweepSafetyContract asserts the grid-wide invariants
// the sweep is built to measure: every job terminal exactly once, at
// least one cell actually offloaded work, no leases or transfer
// leases leaked anywhere, and every cell's merged trace clean. (Cells
// self-check too — this keeps a regression from weakening those
// internal checks unnoticed.)
func TestFederationSweepSafetyContract(t *testing.T) {
	pts, err := FederationSweep(FederationConfig{Seed: 2006, Quick: true, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	offloads := 0
	for _, p := range pts {
		key := p.Topology
		if p.Done+p.Failed != p.Submitted {
			t.Errorf("%s: %d done + %d failed != %d submitted", key, p.Done, p.Failed, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			t.Errorf("%s: leaked %d leases grid-wide", key, p.LeakedLeases)
		}
		if p.OpenTransfers != 0 {
			t.Errorf("%s: %d transfer leases left open", key, p.OpenTransfers)
		}
		if v := trace.CheckComplete(p.Trace.Events); len(v) != 0 {
			t.Errorf("%s: %d merged-trace violations, first: %s", key, len(v), v[0])
		}
		offloads += p.Accepted
	}
	if offloads == 0 {
		t.Error("no cell offloaded any job — the pressure rule never fired")
	}
}

// TestFederationQuickSubsetOfFull: cells are seeded by their
// coordinates, so each quick point equals, field for field, the full
// sweep's point of the same (topology, K, rate). The -quick baseline
// gate relies on that.
func TestFederationQuickSubsetOfFull(t *testing.T) {
	quick, err := FederationSweep(FederationConfig{Seed: 2006, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := FederationSweep(FederationConfig{Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	type coord struct {
		topo string
		k    int
		rate float64
	}
	byCoord := map[coord]FederationPoint{}
	for _, p := range full {
		byCoord[coord{p.Topology, p.K, p.FaultRate}] = p
	}
	if len(quick) == 0 || len(quick) >= len(full) {
		t.Fatalf("quick sweep has %d cells, full %d: want a proper subset", len(quick), len(full))
	}
	for _, q := range quick {
		c := coord{q.Topology, q.K, q.FaultRate}
		p, ok := byCoord[c]
		if !ok {
			t.Errorf("quick cell %+v is not in the full sweep", c)
			continue
		}
		if !reflect.DeepEqual(q, p) {
			t.Errorf("quick cell %+v differs from the full sweep's:\nquick %+v\nfull  %+v", c, q, p)
		}
	}
}
