package infosys

import (
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

func rec(name string, free int) SiteRecord {
	return SiteRecord{
		Name:       name,
		Gatekeeper: name + ".gk",
		Attrs:      map[string]any{"Arch": "i686", "OS": "linux"},
		TotalCPUs:  8,
		FreeCPUs:   free,
	}
}

func TestPublishAndQuery(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := New(sim, 250*time.Millisecond)
	svc.Publish(rec("ifca", 4))
	svc.Publish(rec("uab", 8))

	// The query's cost is charged by the caller (the broker's
	// discovery, TestDiscoveryChargesQueryLatency), not by the read.
	got := svc.Snapshot().Records()
	if len(got) != 2 || got[0].Name != "ifca" || got[1].Name != "uab" {
		t.Fatalf("records = %v", got)
	}
}

func TestPublishStampsTime(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := New(sim, 0)
	sim.AfterFunc(time.Hour, func() { svc.Publish(rec("a", 1)) })
	sim.Run()
	r := svc.SnapshotImmediate().Records()[0]
	if r.UpdatedAt != sim.Now() {
		t.Fatalf("UpdatedAt = %v, want %v", r.UpdatedAt, sim.Now())
	}
}

func TestPublishReplaces(t *testing.T) {
	svc := New(simclock.NewSim(time.Time{}), 0)
	svc.Publish(rec("a", 1))
	svc.Publish(rec("a", 7))
	rs := svc.SnapshotImmediate().Records()
	if len(rs) != 1 || rs[0].FreeCPUs != 7 {
		t.Fatalf("records = %v", rs)
	}
}

func TestPublishRequiresName(t *testing.T) {
	svc := New(simclock.NewSim(time.Time{}), 0)
	if err := svc.Publish(SiteRecord{}); err == nil {
		t.Fatal("unnamed record accepted")
	}
}

func TestRemove(t *testing.T) {
	svc := New(simclock.NewSim(time.Time{}), 0)
	svc.Publish(rec("a", 1))
	svc.Remove("a")
	if svc.Len() != 0 {
		t.Fatalf("Len = %d after Remove", svc.Len())
	}
}

// Publishes land in the registry while the service is cut — the
// partition is between brokers and index, not sites and index — but
// are served only after the heal.
func TestPublishLandsWhileCut(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := New(sim, 0)
	svc.Publish(rec("ifca", 4))
	svc.SetPartitioned(true)
	if err := svc.Publish(rec("uab", 8)); err != nil {
		t.Fatal(err)
	}
	if svc.Len() != 2 {
		t.Fatal("publish did not reach the registry")
	}
	if got := svc.SnapshotImmediate().len(); got != 1 {
		t.Fatalf("cut service serves %d sites, want the 1 of cut time", got)
	}
	svc.Remove("ifca")
	if svc.Len() != 1 {
		t.Fatal("remove did not reach the registry")
	}
	if got := svc.SnapshotImmediate().len(); got != 1 {
		t.Fatalf("cut service serves %d sites after a remove, want 1", got)
	}
	svc.SetPartitioned(false)
	if got := svc.SnapshotImmediate().Records(); len(got) != 1 || got[0].Name != "uab" {
		t.Fatalf("healed service serves %v, want [uab]", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	svc := New(simclock.NewSim(time.Time{}), 0)
	svc.Publish(rec("a", 1))
	out := svc.SnapshotImmediate().Records()
	out[0].Attrs["Arch"] = "sparc"
	out[0].FreeCPUs = 99
	again := svc.SnapshotImmediate().Records()[0]
	if again.Attrs["Arch"] != "i686" || again.FreeCPUs != 1 {
		t.Fatal("query result aliases registry state")
	}
}

// The published row predicates evaluate merges the static attributes
// with the publish-time queue state, numbers as float64.
func TestMatchAttrsMergesDynamicState(t *testing.T) {
	svc := New(simclock.NewSim(time.Time{}), 0)
	r := rec("a", 3)
	r.QueuedJobs = 5
	svc.Publish(r)
	page, ok := svc.DiscoverImmediate(0).Next()
	if !ok || page.Len() != 1 {
		t.Fatal("published record not served")
	}
	sc, vals := page.Snapshot().Schema(), page.Values(0)
	for name, want := range map[string]any{"Arch": "i686", "os": "linux", AttrFreeCPUs: 3.0, AttrQueuedJobs: 5.0, AttrTotalCPUs: 8.0} {
		if off, ok := sc.Offset(name); !ok || vals[off] != want {
			t.Fatalf("%s = %v, want %v (row %v)", name, vals[off], want, vals)
		}
	}
}

func TestStaleAfter(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := New(sim, 0)
	svc.Publish(rec("old", 1))
	sim.AfterFunc(10*time.Minute, func() { svc.Publish(rec("fresh", 1)) })
	sim.Run()
	stale := svc.StaleAfter(5 * time.Minute)
	if len(stale) != 1 || stale[0] != "old" {
		t.Fatalf("stale = %v", stale)
	}
}
