package infosys

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

func snapService(t *testing.T, n int) *Service {
	t.Helper()
	s := New(simclock.Real(), 0)
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

	rec := snap.Record(0)
	rec.Attrs["Arch"] = "tampered"
	rec.FreeCPUs = 99
	if got := snap.Record(0); got.Attrs["Arch"] != "i686" || got.FreeCPUs != 4 {
		t.Fatal("mutating a returned record reached the snapshot")
	}

	recs := snap.Records()
	recs[1].Attrs["MemoryMB"] = -1
	if got := snap.Record(1); got.Attrs["MemoryMB"] != 257 {
		t.Fatal("mutating Records() output reached the snapshot")
	}

	m := snap.MatchAttrs(0)
	m.SetFloat(AttrFreeCPUs, 0)
	m.Set("Arch", "sparc")
	m.Release()
	m2 := snap.MatchAttrs(0)
	defer m2.Release()
	if v, _ := m2.Get(AttrFreeCPUs); v != float64(4) {
		t.Fatalf("MatchAttrs override leaked into the snapshot: FreeCPUs = %v", v)
	}
	if v, _ := m2.Get("Arch"); v != "i686" {
		t.Fatalf("MatchAttrs override leaked into the snapshot: Arch = %v", v)
	}

	// And the registry itself is unaffected by all of the above.
	if got := s.QueryImmediate()[0]; got.Attrs["Arch"] != "i686" || got.FreeCPUs != 4 {
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
	s := New(simclock.Real(), 0)
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
	if m := snap.MatchAttrs(1); m.Map()["Preferred"] != false || m.Map()[AttrFreeCPUs] != float64(3) {
		t.Fatalf("republished values not served: %v", m.Map())
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

// TestMatchAttrsVector covers the pooled vector surface: schema-ordered
// values, case-insensitive access, dynamic slots normalized to float64.
func TestMatchAttrsVector(t *testing.T) {
	s := snapService(t, 1)
	snap := s.SnapshotImmediate()
	m := snap.MatchAttrs(0)
	defer m.Release()
	if m.Schema() != snap.Schema() {
		t.Fatal("vector schema differs from snapshot schema")
	}
	if len(m.Values()) != snap.Schema().Len() {
		t.Fatal("vector length differs from schema length")
	}
	if v, ok := m.Get("memorymb"); !ok || v != float64(256) {
		t.Fatalf("MemoryMB = %v, %v; want 256 (normalized float64)", v, ok)
	}
	if v, ok := m.Get(AttrQueuedJobs); !ok || v != float64(0) {
		t.Fatalf("QueuedJobs = %v, %v; want 0", v, ok)
	}
	if m.Set("NoSuchAttr", 1) {
		t.Fatal("Set of an unknown attribute should report false")
	}
	if !m.SetFloat(AttrFreeCPUs, 2) {
		t.Fatal("SetFloat of a schema attribute should report true")
	}
	if got := m.Map()["FreeCPUs"]; got != float64(2) {
		t.Fatalf("Map() FreeCPUs = %v, want 2", got)
	}
	m.SetQueueState(3, 5)
	if free, _ := m.Get("freecpus"); free != float64(3) {
		t.Fatalf("SetQueueState: FreeCPUs = %v, want 3", free)
	}
	if queued, _ := m.Get(AttrQueuedJobs); queued != float64(5) {
		t.Fatalf("SetQueueState: QueuedJobs = %v, want 5", queued)
	}
}

// TestConcurrentPublishQueryRemove drives the service from many
// goroutines at once; the race detector (-race in CI) verifies the
// locking, and each reader verifies snapshot self-consistency.
func TestConcurrentPublishQueryRemove(t *testing.T) {
	s := New(simclock.Real(), 0)
	const writers, readers, iters = 4, 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("site%d-%d", w, i%7)
				if i%5 == 4 {
					s.Remove(name)
					continue
				}
				s.Publish(SiteRecord{
					Name:     name,
					Attrs:    map[string]any{"Arch": "i686", "MemoryMB": i},
					FreeCPUs: i % 5, TotalCPUs: 4,
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap := s.SnapshotImmediate()
				for j := 0; j < snap.Len(); j++ {
					m := snap.MatchAttrs(j)
					if _, ok := m.Get(AttrFreeCPUs); !ok {
						t.Error("snapshot row without FreeCPUs")
					}
					m.Release()
				}
				if recs := s.QueryImmediate(); len(recs) != snap.Len() && s.Epoch() == snap.Epoch() {
					t.Error("query and snapshot disagree within one epoch")
				}
				s.StaleAfter(time.Hour)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkMatchAttrs(b *testing.B) {
	s := New(simclock.Real(), 0)
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
		m := snap.MatchAttrs(i % snap.Len())
		m.SetFloat(AttrFreeCPUs, 3)
		m.SetFloat(AttrQueuedJobs, 1)
		m.Release()
	}
}
