package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// deltaGrid is equivGrid with the information service exposed, so
// tests can churn the registry and configure the delta log.
func deltaGrid(cfg Config, shards, depth int) (*simclock.Sim, *Broker, *infosys.Service) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim = sim
	info := infosys.NewSharded(sim, 500*time.Millisecond, shards)
	info.SetDeltaLog(depth)
	cfg.Info = info
	b := New(cfg)
	for i := 0; i < 30; i++ {
		arch := "i686"
		if i%5 == 4 {
			arch = "ppc" // fails Requirements
		}
		b.RegisterSite(site.New(sim, site.Config{
			Name:            fmt.Sprintf("site%02d", i),
			Nodes:           1 + i%3,
			Network:         netsim.CampusGrid(),
			Costs:           site.DefaultCosts(),
			PublishInterval: 10000 * time.Hour,
			Attrs: map[string]any{
				"Arch": arch, "OS": "linux",
				"MemoryMB": 256 + 64*(i%4), "Preferred": 1 + i%3,
			},
		}))
	}
	sim.RunFor(time.Second) // land the initial publishes
	return sim, b, info
}

// churn republishes a few sites with moved Preferred ranks plus one
// flip in and out of Requirements — the same function is applied to
// the reference and the incremental grid, keeping them identical.
func churn(t *testing.T, info *infosys.Service, round int) {
	t.Helper()
	for j := 0; j < 5; j++ {
		i := (round*7 + j*3) % 30
		arch := "i686"
		if i%5 == 4 {
			arch = "ppc"
		}
		if j == 4 && round%2 == 1 {
			arch = "ppc" // flip a passing site out of Requirements
		}
		if err := info.Publish(infosys.SiteRecord{
			Name:      fmt.Sprintf("site%02d", i),
			TotalCPUs: 1 + i%3,
			FreeCPUs:  1 + i%3,
			Attrs: map[string]any{
				"Arch": arch, "OS": "linux",
				"MemoryMB": 256 + 64*(i%4), "Preferred": 1 + (i+round)%3,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalEquivalentToSnapshotPass is the delta-subscribed
// pass's oracle test, the same contract the page scan holds: for a
// fixed seed the pass over the mirror must produce the exact ordered
// candidate list of the naive whole-snapshot oracle (oracle_test.go) —
// across shard counts, TopK settings and log depths (depth 0 forces a
// re-pin every poll), and across passes with identical churn applied
// to both grids.
func TestIncrementalEquivalentToSnapshotPass(t *testing.T) {
	const seed, rounds = 2006, 4
	job := equivJob(t)

	reference := func() [][]string {
		sim, ref := equivGrid(Config{Seed: seed}, 1)
		useOracle(ref)
		var info *infosys.Service = ref.cfg.Info.(*infosys.Service)
		var out [][]string
		for r := 0; r < rounds; r++ {
			cands := runMatchPass(t, sim, ref, job)
			lines := make([]string, len(cands))
			for i, c := range cands {
				lines[i] = candLine(c)
			}
			out = append(out, lines)
			churn(t, info, r)
		}
		return out
	}()
	if len(reference[0]) == 0 {
		t.Fatal("reference pass matched no sites")
	}

	for _, tc := range []struct {
		name                string
		shards, topk, depth int
		data                bool // data-aware with an empty catalog: must be a no-op
	}{
		{"shards=8/topk=0/depth=64", 8, 0, 64, false},
		{"shards=8/topk=all/depth=64", 8, 64, 64, false},
		{"shards=1/topk=0/depth=1", 1, 0, 1, false},
		{"shards=8/topk=all/depth=0", 8, 64, 0, false}, // re-pin every poll
		{"shards=64/topk=all/depth=2", 64, 64, 2, false},
		{"dataaware/empty-catalog/depth=64", 8, 0, 64, true},
		{"dataaware/empty-catalog/topk=all/depth=0", 8, 64, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: seed, TopK: tc.topk, Incremental: true}
			if tc.data {
				cfg.Data = datacat.New(datacat.NewLinks(netsim.CampusGrid()))
				cfg.DataAware = true
			}
			sim, b, info := deltaGrid(cfg, tc.shards, tc.depth)
			for r := 0; r < rounds; r++ {
				cands := runMatchPass(t, sim, b, job)
				if len(cands) != len(reference[r]) {
					t.Fatalf("round %d: incremental kept %d candidates, reference kept %d",
						r, len(cands), len(reference[r]))
				}
				for i := range cands {
					if g := candLine(cands[i]); g != reference[r][i] {
						t.Fatalf("round %d candidate %d:\n  incremental: %s\n  reference:   %s",
							r, i, g, reference[r][i])
					}
				}
				churn(t, info, r)
			}
		})
	}
}

// TestIncrementalTopKBoundsCandidates holds the mirror scan to the
// page scan's memory contract: TopK bounds the kept set and the
// survivors are the reference pass's best K, with the pass reporting
// delta — not snapshot — discovery work once the mirror is warm.
func TestIncrementalTopKBoundsCandidates(t *testing.T) {
	const seed, k = 2006, 5
	job := equivJob(t)

	sim, ref := equivGrid(Config{Seed: seed}, 1)
	want := runMatchPass(t, sim, useOracle(ref), job)

	sim, b, info := deltaGrid(Config{Seed: seed, TopK: k, Incremental: true}, 8, 64)
	h := &Handle{request: Request{Job: job}}
	var got []candidate
	done := false
	b.matchPass(h, nil, func(c []candidate) { got, done = c, true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("pass did not complete")
	}
	if h.peak != k || len(got) != k {
		t.Fatalf("peak=%d kept=%d, want TopK=%d", h.peak, len(got), k)
	}
	for i := 0; i < k; i++ {
		if candLine(got[i]) != candLine(want[i]) {
			t.Fatalf("candidate %d:\n  incremental: %s\n  reference:   %s", i, candLine(got[i]), candLine(want[i]))
		}
	}
	// The depth-64 log covers the service's whole history, so the
	// initial catch-up arrives as one delta per publish, no re-pins.
	if h.deltas != 30 || h.repins != 0 {
		t.Fatalf("first poll: deltas=%d repins=%d, want the 30 initial publishes as deltas", h.deltas, h.repins)
	}

	// Steady state: a churned pass applies deltas, not re-pins.
	churn(t, info, 1)
	h = &Handle{request: Request{Job: job}}
	done = false
	b.matchPass(h, nil, func([]candidate) { done = true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("second pass did not complete")
	}
	if h.deltas == 0 || h.repins != 0 {
		t.Fatalf("steady-state pass: deltas=%d repins=%d, want pure delta repair", h.deltas, h.repins)
	}
	if h.matchEpoch != info.Epoch() {
		t.Fatalf("pass matched at epoch %d, registry at %d", h.matchEpoch, info.Epoch())
	}
}

// TestMirrorMatchesRegistry is the mirror's property test: after any
// random sequence of publishes, updates, removes and schema changes —
// including bursts past a shard's log depth that force re-pins — a
// poll must leave the subscriber's mirror holding exactly the registry
// snapshot's records, each with the snapshot's flat vector against the
// snapshot's schema, none extra and none missing. Runs under -race in
// the CI matrix.
func TestMirrorMatchesRegistry(t *testing.T) {
	var polled Handle // counts the deltas and re-pins every poll applied
	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(7000 + trial))
		sim, b, info := deltaGrid(Config{Seed: 1, Incremental: true}, 4, 2)
		s := b.sub

		poll := func() {
			done := false
			s.poll(&polled, func() { done = true })
			sim.RunFor(time.Hour)
			if !done {
				t.Fatal("poll did not complete")
			}
		}
		poll()

		for step := 0; step < 40; step++ {
			// A burst of mutations over the four shards; a shard that
			// takes more than its depth-2 log holds answers the next
			// poll with a gap re-pin, the others with deltas.
			burst := 1 + rng.Intn(12)
			for m := 0; m < burst; m++ {
				i := rng.Intn(34) // names beyond the registered 30 exercise add/remove
				name := fmt.Sprintf("site%02d", i)
				switch {
				case rng.Intn(6) == 0:
					info.Remove(name)
				default:
					attrs := map[string]any{
						"Arch": []string{"i686", "ppc"}[rng.Intn(2)], "OS": "linux",
						"MemoryMB": 256 + 64*rng.Intn(4), "Preferred": 1 + rng.Intn(3),
					}
					if rng.Intn(20) == 0 {
						// Widen the attribute set: a schema change that
						// forces the subscriber to re-flatten the mirror.
						attrs[fmt.Sprintf("Extra%d", rng.Intn(3))] = step
					}
					if err := info.Publish(infosys.SiteRecord{
						Name: name, TotalCPUs: 4, FreeCPUs: 1 + rng.Intn(4), Attrs: attrs,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			poll()

			snap := info.SnapshotImmediate()
			if s.schema != snap.Schema() {
				t.Fatalf("trial %d step %d: mirror laid out against a stale schema", trial, step)
			}
			seen := 0
			cur := snap.Cursor(0)
			for page, ok := cur.Next(); ok; page, ok = cur.Next() {
				for i := 0; i < page.Len(); i++ {
					name := page.Name(i)
					ent := s.mirror[name]
					if ent == nil {
						t.Fatalf("trial %d step %d: mirror is missing %s", trial, step, name)
					}
					seen++
					if want := page.RecordShared(i); !reflect.DeepEqual(ent.rec, want) {
						t.Fatalf("trial %d step %d: mirror holds %+v for %s, registry %+v", trial, step, ent.rec, name, want)
					}
					if want := page.Values(i); !reflect.DeepEqual(ent.vals, want) {
						t.Fatalf("trial %d step %d: mirror vector for %s is %v, registry %v", trial, step, name, ent.vals, want)
					}
				}
			}
			if seen != snap.Len() || len(s.mirror) != seen {
				t.Fatalf("trial %d step %d: mirror holds %d records, %d of the registry's %d",
					trial, step, len(s.mirror), seen, snap.Len())
			}
		}
	}
	if polled.deltas < 100 || polled.repins < 100 {
		t.Fatalf("polls applied %d deltas and %d re-pins: the bursts no longer exercise both repairs", polled.deltas, polled.repins)
	}
}

// TestScanOrderIndependent pins what scanning the mirror, a Go map,
// relies on: the per-record stage's kept set and counters do not depend
// on the order records arrive in. One record set is fed to the stage
// name-sorted, reversed and shuffled, unbounded and with TopK cutting
// inside a group of equal preliminary ranks, where only the tie-break
// (seeded noise, or the site name in Deterministic mode) decides who
// is kept.
func TestScanOrderIndependent(t *testing.T) {
	job := equivJob(t)
	for _, det := range []bool{false, true} {
		for _, tc := range []struct{ topk, kept int }{{0, 22}, {1, 1}, {16, 16}} {
			sim, b := equivGrid(Config{Seed: 2006, TopK: tc.topk, Deterministic: det}, 4)
			// 24 sites pass Requirements in three Preferred groups of 8.
			// Excluding one of rank 3 and quarantining one of rank 2
			// leaves groups of 7, 7 and 8: TopK 1 cuts inside the first,
			// TopK 16 inside the last.
			excluded := map[string]bool{"site02": true}
			b.quarantineNow("site07")

			snap := b.cfg.Info.(*infosys.Service).SnapshotImmediate()
			page, _ := snap.Cursor(snap.Len()).Next()
			feed := func(order []int) string {
				h := &Handle{request: Request{Job: job}}
				s := passScan{b: b, h: h, excluded: excluded, now: sim.Now(), nonce: 42}
				for _, i := range order {
					s.record(snap.Schema(), page.Name(i), page.Values(i), page.RecordShared(i).FreeCPUs)
				}
				kept := make([]string, len(s.keep))
				for i, p := range s.keep {
					kept[i] = fmt.Sprintf("%s:%g:%g", p.st.Name(), p.prelim, p.noise)
				}
				sort.Strings(kept)
				return fmt.Sprintf("kept=%v peak=%d scanned=%d unavailable=%d", kept, h.peak, h.scanned, h.unavailable)
			}

			n := page.Len()
			sorted, reversed := make([]int, n), make([]int, n)
			for i := range sorted {
				sorted[i], reversed[i] = i, n-1-i
			}
			want := feed(sorted)
			if !strings.HasSuffix(want, fmt.Sprintf("] peak=%d scanned=30 unavailable=1", tc.kept)) {
				t.Fatalf("det=%v topk=%d: name-sorted feed: %s", det, tc.topk, want)
			}
			orders := [][]int{reversed}
			rng := rand.New(rand.NewSource(int64(tc.topk)))
			for i := 0; i < 8; i++ {
				orders = append(orders, rng.Perm(n))
			}
			for _, order := range orders {
				if got := feed(order); got != want {
					t.Fatalf("det=%v topk=%d: the stage observed enumeration order %v:\n  got:  %s\n  want: %s",
						det, tc.topk, order, got, want)
				}
			}
		}
	}
}

func mustParseJob(t *testing.T, src string) *jdl.Job {
	t.Helper()
	job, err := jdl.ParseJob(src)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestIncrementalRunsMatchSnapshotRuns replays the whole scheduling
// scenario of TestStreamedRunsMatchSnapshotRuns on identically seeded
// grids differing only in matchmaking path: every job must land on the
// same site with the same resubmission count whether matched by the
// whole-snapshot oracle, from delta subscriptions, or through the
// log-less re-pin fallback.
func TestIncrementalRunsMatchSnapshotRuns(t *testing.T) {
	type outcome struct{ sites, states string }
	scenario := func(cfg Config, depth int, oracle bool) outcome {
		g := newGrid(t, 8, 1, cfg)
		g.info.SetDeltaLog(depth)
		if oracle {
			useOracle(g.b)
		}
		var hs []*Handle
		for i := 0; i < 6; i++ {
			h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
			g.sim.RunFor(time.Second)
		}
		for i := 0; i < 3; i++ {
			h, err := g.b.Submit(batchJob(30 * time.Second))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		g.sim.RunFor(30 * time.Minute)
		var o outcome
		for _, h := range hs {
			o.sites += fmt.Sprintf("%s/%d ", h.Site(), h.Resubmissions())
			o.states += h.State().String() + " "
		}
		return o
	}

	ref := scenario(Config{Seed: 99}, 0, true)
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"incremental/depth=64", 64},
		{"incremental/depth=0", 0}, // every poll re-pins
	} {
		if got := scenario(Config{Seed: 99, Incremental: true}, tc.depth, false); got != ref {
			t.Fatalf("%s diverged from the whole-snapshot run:\n  incremental: %+v\n  reference:   %+v",
				tc.name, got, ref)
		}
	}
}
