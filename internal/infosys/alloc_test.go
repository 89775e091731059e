package infosys

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// The registry's allocation budgets. Attribute names are spelled as
// sites spell them (mixed case), so a strings.ToLower anywhere on these
// paths shows as an extra object per name.

func budgetRecord(i int) SiteRecord {
	return SiteRecord{
		Name:      fmt.Sprintf("site%04d", i),
		Attrs:     map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": 2048, "Backend": "queue", "StartupSec": 0.5},
		TotalCPUs: 16, FreeCPUs: 7, QueuedJobs: 3,
	}
}

// budgetService publishes n sites into a single-shard registry and cuts
// one snapshot, so that the rows have their vectors.
func budgetService(n int) *Service {
	svc := New(simclock.NewSim(time.Time{}), 0)
	for i := 0; i < n; i++ {
		svc.Publish(budgetRecord(i))
	}
	svc.SnapshotImmediate()
	return svc
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// TestRegistryRepublishBudget: the periodic refresh of a site whose
// attributes did not change stores one new row and nothing else; when
// its queue state moved it also copies the vector and boxes the moved
// counts (at most three). Both write paths hold to it: Publish, which
// compares the attributes, and PublishQueueState, which carries them
// over; the latter refuses an unknown name without allocating.
func TestRegistryRepublishBudget(t *testing.T) {
	skipUnderRace(t)
	svc := budgetService(8)
	r := budgetRecord(3)
	if got := testing.AllocsPerRun(200, func() { svc.Publish(r) }); got != 1 {
		t.Errorf("unchanged republish: %v allocations, want 1 (the row)", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		r.FreeCPUs, r.QueuedJobs = 1+r.FreeCPUs%15, 1+r.QueuedJobs%9
		svc.Publish(r)
	}); got != 4 {
		t.Errorf("queue-state republish: %v allocations, want 4 (row, vector, two boxed counts)", got)
	}
	snap := svc.SnapshotImmediate()
	if got := snap.rows[3].rec; got.FreeCPUs != r.FreeCPUs || got.Attrs["MemoryMB"] != 2048 {
		t.Fatalf("republished record reads %+v", got)
	}

	if got := testing.AllocsPerRun(200, func() {
		svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
	}); got != 1 {
		t.Errorf("unchanged PublishQueueState: %v allocations, want 1 (the row)", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		r.FreeCPUs, r.QueuedJobs = 1+r.FreeCPUs%15, 1+r.QueuedJobs%9
		svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
	}); got != 4 {
		t.Errorf("moved PublishQueueState: %v allocations, want 4 (row, vector, two boxed counts)", got)
	}
	epoch := svc.Epoch()
	if got := testing.AllocsPerRun(200, func() {
		if svc.PublishQueueState("nosuchsite", 16, 7, 3) {
			t.Fatal("PublishQueueState accepted a name with no record")
		}
	}); got != 0 {
		t.Errorf("unknown-name PublishQueueState: %v allocations, want 0", got)
	}
	if svc.Epoch() != epoch {
		t.Fatal("refused PublishQueueState moved the epoch")
	}
	got := svc.SnapshotImmediate().rows[3].rec
	if got.FreeCPUs != r.FreeCPUs || got.QueuedJobs != r.QueuedJobs || got.Attrs["MemoryMB"] != 2048 || len(got.Attrs) != len(r.Attrs) {
		t.Fatalf("refreshed record reads %+v", got)
	}
}

// TestRegistryDirtyCutBudget: cutting a snapshot of a
// shard one publish dirtied costs the same objects at 64 rows as at
// 4,096 (the publish's own, the copied row slice, the snapshot).
func TestRegistryDirtyCutBudget(t *testing.T) {
	skipUnderRace(t)
	cut := func(n int) float64 {
		svc := budgetService(n)
		r := budgetRecord(n / 2)
		return testing.AllocsPerRun(50, func() {
			r.FreeCPUs = 1 + r.FreeCPUs%15
			svc.Publish(r)
			if svc.SnapshotImmediate().len() != n {
				t.Fatal("snapshot lost rows")
			}
		})
	}
	small, large := cut(64), cut(4096)
	if small != large || small > 6 {
		t.Errorf("publish + dirty snapshot: %v allocations at 64 rows, %v at 4096; want equal and at most 6", small, large)
	}
}

// TestSchemaFlattenBudget: laying a record with canonical
// spellings out against a schema allocates its vector and one box per
// integer it turns into a float64 (MemoryMB and the three counts;
// strings and floats are stored as published) and no lowered name.
func TestSchemaFlattenBudget(t *testing.T) {
	skipUnderRace(t)
	r := budgetRecord(0)
	sc := NewSnapshot([]SiteRecord{r}, nil).Schema()
	if got := testing.AllocsPerRun(200, func() { valsFor(r, sc) }); got != 5 {
		t.Errorf("valsFor: %v allocations, want 5 (vector, MemoryMB, three counts)", got)
	}
}

// BenchmarkRepublish times one site's periodic refresh in an 800-row
// shard (replay-wide's grid), its queue state moved: full is the
// content-comparing Publish of a prebuilt record, queue-state the
// PublishQueueState a registered site's tick calls. Records and names
// are built before the timer starts.
func BenchmarkRepublish(b *testing.B) {
	const n = 800
	recs := make([]SiteRecord, n)
	for i := range recs {
		recs[i] = budgetRecord(i)
	}
	b.Run("full", func(b *testing.B) {
		svc := budgetService(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := &recs[i%n]
			r.FreeCPUs = 1 + (i/n)%15
			svc.Publish(*r)
		}
	})
	b.Run("queue-state", func(b *testing.B) {
		svc := budgetService(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := &recs[i%n]
			svc.PublishQueueState(r.Name, r.TotalCPUs, 1+(i/n)%15, r.QueuedJobs)
		}
	})
}
