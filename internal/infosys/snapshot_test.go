package infosys

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// attrOf reads one attribute of snapshot record i's flat row.
func attrOf(snap *Snapshot, i int, name string) any {
	off, ok := snap.Schema().Offset(name)
	if !ok {
		return nil
	}
	return snap.rows[i].vals[off]
}

func snapService(t *testing.T, n int) *Service {
	t.Helper()
	s := New(simclock.NewSim(time.Time{}), 0)
	for i := 0; i < n; i++ {
		if err := s.Publish(SiteRecord{
			Name:     fmt.Sprintf("site%02d", i),
			Attrs:    map[string]any{"Arch": "i686", "MemoryMB": 256 + i},
			FreeCPUs: 4, TotalCPUs: 4, QueuedJobs: i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSnapshotSharedUntilMutation pins the copy-on-write contract: all
// queries between two mutations share one snapshot allocation, and any
// Publish or Remove starts a new epoch.
func TestSnapshotSharedUntilMutation(t *testing.T) {
	s := snapService(t, 3)
	s1 := s.SnapshotImmediate()
	if s2 := s.SnapshotImmediate(); s2 != s1 {
		t.Fatal("snapshot rebuilt without a mutation")
	}
	s.Publish(SiteRecord{Name: "site00", Attrs: map[string]any{"Arch": "i686"}, FreeCPUs: 2})
	s2 := s.SnapshotImmediate()
	if s2 == s1 {
		t.Fatal("publish did not invalidate the snapshot")
	}
	if s2.Epoch() <= s1.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", s1.Epoch(), s2.Epoch())
	}
	s.Remove("site01")
	if s3 := s.SnapshotImmediate(); s3 == s2 || s3.Len() != 2 {
		t.Fatal("remove did not produce a smaller snapshot")
	}
	// Removing an absent site is not a mutation.
	before := s.SnapshotImmediate()
	s.Remove("nope")
	if s.SnapshotImmediate() != before {
		t.Fatal("no-op remove invalidated the snapshot")
	}
}

// TestSnapshotImmutable verifies that mutating anything a snapshot
// hands out cannot reach the snapshot or the registry.
func TestSnapshotImmutable(t *testing.T) {
	s := snapService(t, 2)
	snap := s.SnapshotImmediate()

	recs := snap.Records()
	recs[0].Attrs["Arch"] = "tampered"
	recs[1].Attrs["MemoryMB"] = -1
	if got := snap.rows[1].rec; got.Attrs["MemoryMB"] != 257 {
		t.Fatal("mutating Records() output reached the snapshot")
	}

	m := PooledMatchAttrs(snap.Schema(), snap.rows[0].vals)
	m.SetQueueState(0, 9)
	m.Release()
	if v := attrOf(snap, 0, AttrFreeCPUs); v != float64(4) {
		t.Fatalf("MatchAttrs overlay leaked into the snapshot: FreeCPUs = %v", v)
	}
	if v := attrOf(snap, 0, AttrQueuedJobs); v != float64(0) {
		t.Fatalf("MatchAttrs overlay leaked into the snapshot: QueuedJobs = %v", v)
	}

	// And the registry itself is unaffected by all of the above.
	if got := s.SnapshotImmediate().Records()[0]; got.Attrs["Arch"] != "i686" || got.FreeCPUs != 4 {
		t.Fatal("registry state was reachable through a snapshot")
	}
}

// TestSchemaReusedAcrossEpochs pins the property the compiled-predicate
// cache depends on: republishing with an unchanged attribute name set
// keeps the schema pointer, while a new attribute produces a new schema.
func TestSchemaReusedAcrossEpochs(t *testing.T) {
	s := snapService(t, 2)
	s1 := s.SnapshotImmediate()
	s.Publish(SiteRecord{Name: "site00", Attrs: map[string]any{"Arch": "x86_64", "MemoryMB": 1024}, FreeCPUs: 1})
	s2 := s.SnapshotImmediate()
	if s2.Schema() != s1.Schema() {
		t.Fatal("unchanged name set should reuse the schema pointer")
	}
	s.Publish(SiteRecord{Name: "site00", Attrs: map[string]any{"Arch": "i686", "GPUs": 2}, FreeCPUs: 1})
	s3 := s.SnapshotImmediate()
	if s3.Schema() == s2.Schema() {
		t.Fatal("changed name set should build a new schema")
	}
	if _, ok := s3.Schema().Offset("gpus"); !ok {
		t.Fatal("new attribute missing from the new schema")
	}
}

// TestSchemaStableWhenSoleHolderRepublishes: a site that is the only
// holder of an attribute republishes it on every refresh. Un-counting
// the old record before counting the new one used to take the name's
// holder count through zero, so the schema pointer — every job's
// compiled-predicate cache key — changed on each of those publishes.
// It may change only when the name set does.
func TestSchemaStableWhenSoleHolderRepublishes(t *testing.T) {
	s := New(simclock.NewSim(time.Time{}), 0)
	b := SiteRecord{Name: "b", Attrs: map[string]any{"OS": "linux", "Preferred": true}, TotalCPUs: 4}
	s.Publish(SiteRecord{Name: "a", Attrs: map[string]any{"OS": "linux"}, TotalCPUs: 4})
	s.Publish(b)
	sc := s.SnapshotImmediate().Schema()

	s.Publish(b)
	if s.SnapshotImmediate().Schema() != sc {
		t.Fatal("an unchanged republish by the only holder of Preferred rebuilt the schema")
	}
	b.FreeCPUs = 3
	b.Attrs["Preferred"] = false
	s.Publish(b)
	snap := s.SnapshotImmediate()
	if snap.Schema() != sc {
		t.Fatal("a changed value under an unchanged name set rebuilt the schema")
	}
	if attrOf(snap, 1, "Preferred") != false || attrOf(snap, 1, AttrFreeCPUs) != float64(3) {
		t.Fatalf("republished values not served: %v", snap.rows[1].vals)
	}

	// The only holder drops the name: now the schema must change.
	delete(b.Attrs, "Preferred")
	s.Publish(b)
	dropped := s.SnapshotImmediate().Schema()
	if dropped == sc {
		t.Fatal("dropping an attribute's last holder kept the schema")
	}
	if _, ok := dropped.Offset("Preferred"); ok {
		t.Fatal("dropped attribute still in the schema")
	}
}

// TestMatchAttrsVector covers the pooled vector surface: a copy of the
// row in schema order, numbers normalized to float64, and a queue-state
// overlay that lands in the named slots of the copy only.
func TestMatchAttrsVector(t *testing.T) {
	s := snapService(t, 1)
	snap := s.SnapshotImmediate()
	m := PooledMatchAttrs(snap.Schema(), snap.rows[0].vals)
	defer m.Release()
	vals := m.Values()
	if len(vals) != snap.Schema().Len() {
		t.Fatal("vector length differs from schema length")
	}
	at := func(name string) any {
		off, ok := snap.Schema().Offset(name)
		if !ok {
			t.Fatalf("%s missing from the schema", name)
		}
		return vals[off]
	}
	if v := at("memorymb"); v != float64(256) {
		t.Fatalf("MemoryMB = %v; want 256 (normalized float64)", v)
	}
	if v := at(AttrQueuedJobs); v != float64(0) {
		t.Fatalf("QueuedJobs = %v; want 0", v)
	}
	m.SetQueueState(3, 5)
	if free := at("freecpus"); free != float64(3) {
		t.Fatalf("SetQueueState: FreeCPUs = %v, want 3", free)
	}
	if queued := at(AttrQueuedJobs); queued != float64(5) {
		t.Fatalf("SetQueueState: QueuedJobs = %v, want 5", queued)
	}
	if v := at("Arch"); v != "i686" {
		t.Fatalf("SetQueueState touched Arch: %v", v)
	}
	if v := attrOf(snap, 0, AttrFreeCPUs); v != float64(4) {
		t.Fatalf("the overlay wrote through to the row: FreeCPUs = %v", v)
	}
}

// TestConcurrentPublishQueryRemove interleaves writers and readers on
// one goroutine in seeded random orders. Each reader reads the registry
// twice, with whatever publishes and removes the order puts between the
// reads: every snapshot row carries FreeCPUs, and the two reads agree
// whenever no mutation landed between them.
func TestConcurrentPublishQueryRemove(t *testing.T) {
	const writers, readers, iters = 4, 4, 300
	for seed := int64(1); seed <= 5; seed++ {
		s := New(simclock.NewSim(time.Time{}), 0)
		rng := rand.New(rand.NewSource(seed))
		written := make([]int, writers)
		type reader struct {
			snap  *Snapshot // first read of the pair in progress
			pairs int
		}
		rs := make([]reader, readers)
		var sameEpoch, movedEpoch int
		for done := 0; done < writers+readers; {
			a := rng.Intn(writers + readers)
			if a < writers {
				i := written[a]
				if i == iters {
					continue
				}
				if written[a]++; written[a] == iters {
					done++
				}
				name := fmt.Sprintf("site%d-%d", a, i%7)
				if i%5 == 4 {
					s.Remove(name)
					continue
				}
				s.Publish(SiteRecord{
					Name:     name,
					Attrs:    map[string]any{"Arch": "i686", "MemoryMB": i},
					FreeCPUs: i % 5, TotalCPUs: 4,
				})
				continue
			}
			r := &rs[a-writers]
			if r.pairs == iters {
				continue
			}
			if r.snap == nil {
				r.snap = s.SnapshotImmediate()
				for j := 0; j < r.snap.Len(); j++ {
					if attrOf(r.snap, j, AttrFreeCPUs) == nil {
						t.Fatalf("seed %d: snapshot row without FreeCPUs", seed)
					}
				}
				continue
			}
			recs := s.SnapshotImmediate().Records()
			if s.Epoch() != r.snap.Epoch() {
				movedEpoch++
			} else {
				sameEpoch++
				if len(recs) != r.snap.Len() {
					t.Fatalf("seed %d: query and snapshot disagree within one epoch", seed)
				}
			}
			s.StaleAfter(time.Hour)
			r.snap = nil
			if r.pairs++; r.pairs == iters {
				done++
			}
		}
		if sameEpoch == 0 || movedEpoch == 0 {
			t.Fatalf("seed %d: %d read pairs within one epoch, %d across a mutation; want both", seed, sameEpoch, movedEpoch)
		}
	}
}

func BenchmarkMatchAttrs(b *testing.B) {
	s := New(simclock.NewSim(time.Time{}), 0)
	for i := 0; i < 100; i++ {
		s.Publish(SiteRecord{
			Name:     fmt.Sprintf("site%03d", i),
			Attrs:    map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512 + i},
			FreeCPUs: 4, TotalCPUs: 4,
		})
	}
	snap := s.SnapshotImmediate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := PooledMatchAttrs(snap.Schema(), snap.rows[i%snap.Len()].vals)
		m.SetQueueState(3, 1)
		m.Release()
	}
}
