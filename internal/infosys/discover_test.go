package infosys

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// publishN registers n sites named site%03d with a coherent payload.
func publishN(s *Service, n int) {
	for i := 0; i < n; i++ {
		s.Publish(SiteRecord{
			Name:     fmt.Sprintf("site%03d", i),
			Attrs:    map[string]any{"OS": "linux", "Gen": 0},
			FreeCPUs: 0, TotalCPUs: 4,
		})
	}
}

// TestCursorHonoursPartition: while the service is cut, a paged
// traversal serves the registry of cut time — no site published or
// removed since — and the heal serves the live one on the next query.
func TestCursorHonoursPartition(t *testing.T) {
	svc := NewSharded(simclock.NewSim(time.Time{}), 0, 4)
	publishN(svc, 10)
	names := func() []string {
		var out []string
		for c := svc.DiscoverImmediate(1); ; {
			p, ok := c.Next()
			if !ok {
				sort.Strings(out)
				return out
			}
			for i := 0; i < p.Len(); i++ {
				out = append(out, p.Name(i))
			}
		}
	}
	want := names()
	svc.SetPartitioned(true)
	svc.Remove("site003")
	svc.Publish(SiteRecord{Name: "late", TotalCPUs: 4})
	if got := names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cut traversal = %v, want the cut-time %v", got, want)
	}
	svc.SetPartitioned(false)
	got := names()
	if len(got) != 10 || got[0] != "late" || slices.Contains(got, "site003") {
		t.Fatalf("healed traversal = %v", got)
	}
}

// TestCursorCoversRegistry checks the basic paging contract: a full
// traversal visits every record exactly once, in ascending name order
// within each shard, on pages no larger than requested, with every
// page of a shard backed by the same pinned snapshot.
func TestCursorCoversRegistry(t *testing.T) {
	for _, shards := range []int{1, 4, 16, 64} {
		svc := NewSharded(simclock.NewSim(time.Time{}), 0, shards)
		publishN(svc, 50) // fewer sites than 64 shards leaves some empty
		seen := make(map[string]int)
		pinned := make(map[int]*Snapshot)
		lastName := make(map[int]string)
		for c := svc.DiscoverImmediate(7); ; {
			p, ok := c.Next()
			if !ok {
				break
			}
			if p.Len() == 0 || p.Len() > 7 {
				t.Fatalf("shards=%d: page of %d records (page size 7)", shards, p.Len())
			}
			if prev, ok := pinned[p.Shard()]; ok && prev != p.Snapshot() {
				t.Fatalf("shards=%d: shard %d changed snapshots mid-traversal", shards, p.Shard())
			}
			pinned[p.Shard()] = p.Snapshot()
			for i := 0; i < p.Len(); i++ {
				name := p.Name(i)
				seen[name]++
				if last := lastName[p.Shard()]; last != "" && name <= last {
					t.Fatalf("shards=%d: shard %d out of order: %q after %q", shards, p.Shard(), name, last)
				}
				lastName[p.Shard()] = name
				if r := p.snap.rows[p.lo+i].rec; r.Name != name {
					t.Fatalf("record %d = %q, want %q", i, r.Name, name)
				}
			}
		}
		if len(seen) != 50 {
			t.Fatalf("shards=%d: traversal saw %d distinct sites, want 50", shards, len(seen))
		}
		for name, n := range seen {
			if n != 1 {
				t.Fatalf("shards=%d: %s visited %d times", shards, name, n)
			}
		}
	}
}

// TestCursorConsistentUnderChurn interleaves paged traversals with
// publishers rewriting and adding/removing records, on one goroutine in
// seeded random orders, so publishes and removes land between two
// Cursor.Next calls. Within a shard a traversal must see one consistent
// epoch: no duplicates, no torn records (FreeCPUs and the Gen attribute
// are always published together), and no omissions of the stable sites
// that are never removed.
func TestCursorConsistentUnderChurn(t *testing.T) {
	const (
		shards  = 8
		stable  = 96
		churn   = 48
		writers = 4
		readers = 4
		rounds  = 60
	)
	for seed := int64(1); seed <= 5; seed++ {
		svc := NewSharded(simclock.NewSim(time.Time{}), 0, shards)
		for i := 0; i < stable; i++ {
			svc.Publish(SiteRecord{
				Name:     fmt.Sprintf("stable%03d", i),
				Attrs:    map[string]any{"Gen": 0},
				FreeCPUs: 0, TotalCPUs: 4,
			})
		}
		rng := rand.New(rand.NewSource(seed))
		gen := make([]int, writers)
		open, midTraversal := 0, 0
		write := func(w int) {
			if open > 0 {
				midTraversal++
			}
			gen[w]++
			g := gen[w]
			// Rewrite a stable site with a coherent (FreeCPUs, Gen)
			// pair and churn a transient one.
			i := (g*7 + w) % stable
			svc.Publish(SiteRecord{
				Name:     fmt.Sprintf("stable%03d", i),
				Attrs:    map[string]any{"Gen": g},
				FreeCPUs: g, TotalCPUs: 4,
			})
			j := (g*5 + w) % churn
			if g%2 == 0 {
				svc.Publish(SiteRecord{
					Name:     fmt.Sprintf("churn%03d", j),
					Attrs:    map[string]any{"Gen": g},
					FreeCPUs: g, TotalCPUs: 4,
				})
			} else {
				svc.Remove(fmt.Sprintf("churn%03d", j))
			}
		}

		type reader struct {
			c          *Cursor // traversal in progress
			seen       map[string]bool
			stableSeen int
			round      int
		}
		rs := make([]reader, readers)
		for active := readers; active > 0; {
			a := rng.Intn(writers + readers)
			if a < writers {
				write(a)
				continue
			}
			r := &rs[a-writers]
			if r.round == rounds {
				continue
			}
			if r.c == nil {
				r.c, r.seen, r.stableSeen = svc.DiscoverImmediate(13), make(map[string]bool), 0
				open++
			}
			p, ok := r.c.Next()
			if !ok {
				if r.stableSeen != stable {
					t.Fatalf("seed %d: traversal saw %d stable sites, want %d", seed, r.stableSeen, stable)
				}
				r.c = nil
				open--
				if r.round++; r.round == rounds {
					active--
				}
				continue
			}
			for i := 0; i < p.Len(); i++ {
				rec := p.snap.rows[p.lo+i].rec
				if r.seen[rec.Name] {
					t.Fatalf("seed %d: duplicate %s in one traversal", seed, rec.Name)
				}
				r.seen[rec.Name] = true
				if gen, _ := rec.Attrs["Gen"].(int); gen != rec.FreeCPUs {
					t.Fatalf("seed %d: torn record %s: FreeCPUs %d, Gen %v", seed, rec.Name, rec.FreeCPUs, rec.Attrs["Gen"])
				}
				if strings.HasPrefix(rec.Name, "stable") {
					r.stableSeen++
				}
			}
		}
		if midTraversal == 0 {
			t.Fatalf("seed %d: no publish landed mid-traversal", seed)
		}
	}
}

// TestCursorObservesRemove pins shard snapshots lazily: records removed
// before a shard is first reached are absent, while a shard already
// pinned keeps serving its epoch — the documented loose cross-shard
// consistency.
func TestCursorObservesRemove(t *testing.T) {
	svc := NewSharded(simclock.NewSim(time.Time{}), 0, 4)
	publishN(svc, 40)
	c := svc.DiscoverImmediate(5)
	p, ok := c.Next()
	if !ok {
		t.Fatal("empty first page")
	}
	firstShard := p.Shard()
	pinnedLen := p.Snapshot().Len()

	// Remove every site; the pinned shard must keep its view, and
	// shards not yet reached must come back empty.
	for i := 0; i < 40; i++ {
		svc.Remove(fmt.Sprintf("site%03d", i))
	}
	total := p.Len()
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		if p.Shard() != firstShard {
			t.Fatalf("page from shard %d after removal, want only pinned shard %d", p.Shard(), firstShard)
		}
		total += p.Len()
	}
	if total != pinnedLen {
		t.Fatalf("pinned shard yielded %d records, want its full epoch %d", total, pinnedLen)
	}
	if got := svc.SnapshotImmediate().Len(); got != 0 {
		t.Fatalf("registry still has %d records after removals", got)
	}
}

// TestCursorSnapshotStandalone pages snapshots the caller holds (a
// delta subscriber's pins) with the same coverage contract: shard by
// shard, each shard's records in name order, empty shards skipped.
func TestCursorSnapshotStandalone(t *testing.T) {
	snapOf := func(lo, hi int) *Snapshot {
		var recs []SiteRecord
		for i := lo; i < hi; i++ {
			recs = append(recs, SiteRecord{Name: fmt.Sprintf("s%02d", i), Attrs: map[string]any{"OS": "linux"}})
		}
		return NewSnapshot(recs, nil)
	}
	pins := []*Snapshot{snapOf(10, 23), snapOf(0, 0), snapOf(0, 10)}
	var names []string
	shards := map[int]int{}
	for c := PinnedCursor(pins, 4); ; {
		p, ok := c.Next()
		if !ok {
			break
		}
		shards[p.Shard()] += p.Len()
		for i := 0; i < p.Len(); i++ {
			names = append(names, p.Name(i))
		}
	}
	if len(names) != 23 || !sort.StringsAreSorted(names[:13]) || !sort.StringsAreSorted(names[13:]) {
		t.Fatalf("pinned cursor yielded %v, want all 23, each shard in name order", names)
	}
	if shards[0] != 13 || shards[1] != 0 || shards[2] != 10 {
		t.Fatalf("records per shard %v, want 13 from shard 0 and 10 from shard 2", shards)
	}
}
