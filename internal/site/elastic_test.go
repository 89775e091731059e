package site

import (
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
)

// TestElasticSitePublishesBackendAttrs checks the infosys contract for
// pluggable backends: the site record advertises the backend kind and
// worst-case startup seconds, and TotalCPUs is the elastic capacity
// bound even before any node is provisioned.
func TestElasticSitePublishesBackendAttrs(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{
		Name:    "cloud00",
		Network: netsim.CampusGrid(),
		Costs:   DefaultCosts(),
		Elastic: &batch.ElasticConfig{
			MaxNodes:        6,
			ColdStart:       40 * time.Second,
			ColdStartJitter: 5 * time.Second,
		},
	})
	r := s.Record()
	if r.TotalCPUs != 6 {
		t.Fatalf("TotalCPUs = %d, want the capacity bound 6", r.TotalCPUs)
	}
	if r.FreeCPUs != 6 {
		t.Fatalf("FreeCPUs = %d, want 6 (placeable headroom, nothing provisioned)", r.FreeCPUs)
	}
	if got := s.QueueSlots(); got != 12 {
		t.Fatalf("QueueSlots = %d, want twice the capacity bound", got)
	}
	if got := r.Attrs[infosys.AttrBackend]; got != batch.BackendElastic {
		t.Fatalf("attrs[%s] = %v", infosys.AttrBackend, got)
	}
	if got := r.Attrs[infosys.AttrStartupSec]; got != 45.0 {
		t.Fatalf("attrs[%s] = %v, want 45 (cold start + jitter bound)", infosys.AttrStartupSec, got)
	}
	if b := s.lrms.Backend(); b.Kind != batch.BackendElastic || b.Startup != 45*time.Second {
		t.Fatalf("Backend() = %+v", b)
	}
}

// TestBatchSitePublishesBackendAttrs pins the default: classic batch
// sites advertise an always-provisioned backend with zero startup.
func TestBatchSitePublishesBackendAttrs(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 4)
	r := s.Record()
	if got := r.Attrs[infosys.AttrBackend]; got != batch.BackendBatch {
		t.Fatalf("attrs[%s] = %v", infosys.AttrBackend, got)
	}
	if got := r.Attrs[infosys.AttrStartupSec]; got != 0.0 {
		t.Fatalf("attrs[%s] = %v, want 0", infosys.AttrStartupSec, got)
	}
}

// TestElasticSiteAttrsNotOverridden: user-supplied attribute values
// win over the derived backend attributes.
func TestElasticSiteAttrsOverride(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{
		Name:    "uab",
		Nodes:   2,
		Network: netsim.CampusGrid(),
		Costs:   DefaultCosts(),
		Attrs:   map[string]any{infosys.AttrStartupSec: 99.0},
	})
	if got := s.Record().Attrs[infosys.AttrStartupSec]; got != 99.0 {
		t.Fatalf("attrs[%s] = %v, want the user override 99", infosys.AttrStartupSec, got)
	}
}

// TestElasticSiteRunsJob exercises the full site middleware path on
// top of the elastic backend: submit via the gatekeeper, pay the cold
// start, finish, and reflect the warm node in the next record.
func TestElasticSiteRunsJob(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{
		Name:     "cloud00",
		Network:  netsim.CampusGrid(),
		Costs:    DefaultCosts(),
		LRMCycle: 2 * time.Second,
		Elastic: &batch.ElasticConfig{
			MaxNodes:  2,
			ColdStart: 30 * time.Second,
		},
	})
	var ran bool
	var h *batch.Handle
	s.SubmitAsync(batch.Request{
		ID: "j1", Nodes: 1,
		RunCB: func(_ *batch.ExecCtx, done func()) { ran = true; done() },
	}, SubmitOptions{}, func(bh *batch.Handle, err error) {
		h = bh
		if err != nil {
			t.Error(err)
		}
	})
	sim.RunFor(5 * time.Minute)
	if h == nil || !ran {
		t.Fatalf("elastic site job: handle=%v ran=%v", h, ran)
	}
	if h.State() != batch.Completed {
		t.Fatalf("state = %v", h.State())
	}
	if got := s.Record().FreeCPUs; got != 2 {
		t.Fatalf("FreeCPUs after job = %d, want 2", got)
	}
}
