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
// record changed only its time stores no row, only the time (a beat in
// a slice the shard already owns); when its queue state moved it stores
// one new row and copies the vector, the moved counts coming boxed from
// boxedCounts. Both write paths hold to it: Publish, which compares the
// attributes, and PublishQueueState, which carries them over; the
// latter refuses an unknown name without allocating.
func TestRegistryRepublishBudget(t *testing.T) {
	skipUnderRace(t)
	svc := budgetService(8)
	r := budgetRecord(3)
	if got := testing.AllocsPerRun(200, func() { svc.Publish(r) }); got != 0 {
		t.Errorf("unchanged republish: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		r.FreeCPUs, r.QueuedJobs = 1+r.FreeCPUs%15, 1+r.QueuedJobs%9
		svc.Publish(r)
	}); got != 2 {
		t.Errorf("queue-state republish: %v allocations, want 2 (row, vector)", got)
	}
	snap := svc.SnapshotImmediate()
	if got := snap.record(3); got.FreeCPUs != r.FreeCPUs || got.Attrs["MemoryMB"] != 2048 {
		t.Fatalf("republished record reads %+v", got)
	}

	if got := testing.AllocsPerRun(200, func() {
		svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
	}); got != 0 {
		t.Errorf("unchanged PublishQueueState: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		r.FreeCPUs, r.QueuedJobs = 1+r.FreeCPUs%15, 1+r.QueuedJobs%9
		svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
	}); got != 2 {
		t.Errorf("moved PublishQueueState: %v allocations, want 2 (row, vector)", got)
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
	got := svc.SnapshotImmediate().record(3)
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
// integer attribute it turns into a float64 (MemoryMB; strings and
// floats are stored as published, small counts come from boxedCounts)
// and no lowered name.
func TestSchemaFlattenBudget(t *testing.T) {
	skipUnderRace(t)
	r := budgetRecord(0)
	sc := NewSnapshot([]SiteRecord{r}, nil).Schema()
	if got := testing.AllocsPerRun(200, func() { valsFor(r, sc) }); got != 2 {
		t.Errorf("valsFor: %v allocations, want 2 (vector, MemoryMB)", got)
	}
}

// TestBoxedCountsAreTheFloats: a count taken from boxedCounts is the
// float64 boxing it afresh would give, at both ends of the table and
// past them, and a probe overlay of small counts allocates nothing.
func TestBoxedCountsAreTheFloats(t *testing.T) {
	for _, n := range []int{0, 1, 7, len(boxedCounts) - 1, len(boxedCounts), 1 << 20, -1} {
		if got, ok := boxCount(n).(float64); !ok || got != float64(n) {
			t.Errorf("boxCount(%d) = %#v, want float64(%d)", n, boxCount(n), n)
		}
	}
	if raceEnabled {
		return
	}
	snap := NewSnapshot([]SiteRecord{budgetRecord(0)}, nil)
	m := PooledMatchAttrs(snap.Schema(), snap.rows[0].vals)
	defer m.Release()
	if got := testing.AllocsPerRun(200, func() { m.SetQueueState(5, 900) }); got != 0 {
		t.Errorf("SetQueueState: %v allocations, want 0", got)
	}
}

// TestRowReadsLiveShard: on a service that is not partitioned, Row
// looks the name up in the live shard instead of cutting a snapshot of
// it, so the publish that follows copies no slice and the pair costs
// just the publish's row and vector. While the service is partitioned
// Row still reads the view frozen at the cut.
func TestRowReadsLiveShard(t *testing.T) {
	svc := budgetService(8)
	r := budgetRecord(3)
	r.FreeCPUs = 1
	svc.Publish(r) // takes the rows back from budgetService's snapshot
	sh := svc.shards[0]
	snap := sh.snap
	sc, vals, ok := svc.Row(r.Name)
	if !ok || sc != svc.sharedSchema() || vals[sc.free] != float64(1) {
		t.Fatalf("Row(%s) = %v, %v, %v", r.Name, sc, vals, ok)
	}
	if sh.snap != snap || sh.shared {
		t.Fatal("Row cut a snapshot of the live shard")
	}
	if _, _, ok := svc.Row("nosuchsite"); ok {
		t.Fatal("Row found a site that never published")
	}
	if !raceEnabled {
		if got := testing.AllocsPerRun(200, func() {
			svc.Row(r.Name)
			r.FreeCPUs = 1 + r.FreeCPUs%15
			svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
		}); got != 2 {
			t.Errorf("Row + moved PublishQueueState: %v allocations, want 2 (row, vector)", got)
		}
	}

	svc.SetPartitioned(true)
	frozen := r.FreeCPUs
	r.FreeCPUs = 1 + r.FreeCPUs%15
	svc.PublishQueueState(r.Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
	if _, vals, ok := svc.Row(r.Name); !ok || vals[sc.free] != float64(frozen) {
		t.Fatalf("partitioned Row(%s) reads FreeCPUs %v, want the frozen %d", r.Name, vals[sc.free], frozen)
	}
	svc.SetPartitioned(false)
	if _, vals, ok := svc.Row(r.Name); !ok || vals[sc.free] != float64(r.FreeCPUs) {
		t.Fatalf("healed Row(%s) reads FreeCPUs %v, want %d", r.Name, vals[sc.free], r.FreeCPUs)
	}
}

// BenchmarkRepublish times one site's periodic refresh in an 800-row
// shard (replay-wide's grid). full and queue-state move the queue
// state: full is the content-comparing Publish of a prebuilt record,
// queue-state the PublishQueueState a registered site's tick calls.
// idle is that tick with nothing moved, replay-wide's common case, and
// idle-cut the same with a snapshot cut every n refreshes, as a round
// of discovery passes between synchronized ticks does. Records and
// names are built before the timer starts.
func BenchmarkRepublish(b *testing.B) {
	const n = 800
	recs := make([]SiteRecord, n)
	for i := range recs {
		recs[i] = budgetRecord(i)
	}
	idle := func(b *testing.B, cut bool) {
		svc := budgetService(n)
		r := budgetRecord(0) // every budget record's queue state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cut && i%n == 0 {
				svc.SnapshotImmediate()
			}
			svc.PublishQueueState(recs[i%n].Name, r.TotalCPUs, r.FreeCPUs, r.QueuedJobs)
		}
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
	b.Run("idle", func(b *testing.B) { idle(b, false) })
	b.Run("idle-cut", func(b *testing.B) { idle(b, true) })
}
