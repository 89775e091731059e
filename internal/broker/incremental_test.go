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

// subscribable deploys an index to serve delta subscriptions: per-shard
// logs of the given depth, or at depth 0 shard links instead, so the
// subscriber re-pins on every epoch-advancing poll.
func subscribable(depth int) func(*infosys.Service) {
	return func(info *infosys.Service) {
		if depth > 0 {
			info.SetDeltaLog(depth)
		} else {
			info.SetShardLink(netsim.WideArea())
		}
	}
}

// deltaGrid is equivGrid with the information service exposed, so
// tests can churn the registry, and deployed to serve subscriptions.
func deltaGrid(cfg Config, shards, depth int) (*simclock.Sim, *Broker, *infosys.Service) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim = sim
	info := infosys.NewSharded(sim, 500*time.Millisecond, shards)
	subscribable(depth)(info)
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

// TestReadFollowsIndex pins what picks the registry read: a broker
// subscribes exactly when its index keeps delta logs or links its
// shards, and queries any other index.
func TestReadFollowsIndex(t *testing.T) {
	for _, tc := range []struct {
		name  string
		index func(*infosys.Service)
		want  bool
	}{
		{"plain", nil, false},
		{"logged", subscribable(64), true},
		{"linked", subscribable(0), true},
	} {
		if got := newGridOn(t, 1, 1, Config{}, tc.index).b.sub != nil; got != tc.want {
			t.Errorf("%s index: broker subscribes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPollHandoffOrder pins the order the poll hand-off keeps, that of
// waking each queued pass in an event of its own. Here a's poll
// finishes with b and c queued, and a's continuation starts d and e and
// posts an event x. Behind the flat query latency d polls at once, and
// x runs, then e, b and c queue behind d. Behind a zero-RTT link a poll
// that finds nothing new finishes at once, so d, e, b and c each poll
// in turn, and b's finish must not send c behind x.
func TestPollHandoffOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		link *netsim.Profile
		want string
	}{
		{"flat", nil, "a x d e b c"},
		{"zero-rtt-link", &netsim.Profile{Name: "zero-rtt", BytesPerSec: 1e6}, "a d e b c x"},
	} {
		sim, b, info := deltaGrid(Config{Seed: 1}, 4, 64)
		if tc.link != nil {
			info.SetShardLink(*tc.link)
		}
		var polled Handle
		var order []string
		pass := func(name string, then func()) {
			b.sub.poll(&polled, func() {
				order = append(order, name)
				if then != nil {
					then()
				}
			})
		}
		pass("a", func() {
			pass("d", nil)
			pass("e", nil)
			sim.Post(func() { order = append(order, "x") })
		})
		pass("b", nil)
		pass("c", nil)
		sim.RunFor(time.Minute)
		if got := strings.Join(order, " "); got != tc.want {
			t.Errorf("%s: passes polled in order %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestIncrementalEquivalentToSnapshotPass is the delta-subscribed
// pass's oracle test, the same contract the page scan holds: for a
// fixed seed the pass over the pinned snapshots must produce the exact
// ordered candidate list of the naive whole-snapshot oracle
// (oracle_test.go) — across shard counts, TopK settings and log depths
// (depth 0, a linked index without logs, re-pins every poll), and
// across passes with identical churn applied to both grids.
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
			cfg := Config{Seed: seed, TopK: tc.topk}
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

// TestIncrementalTopKBoundsCandidates holds the delta-subscribed scan
// to the page scan's memory contract: TopK bounds the kept set and the
// survivors are the reference pass's best K, with the pass reporting
// delta — not snapshot — discovery work once the subscription is warm.
func TestIncrementalTopKBoundsCandidates(t *testing.T) {
	const seed, k = 2006, 5
	job := equivJob(t)

	sim, ref := equivGrid(Config{Seed: seed}, 1)
	want := runMatchPass(t, sim, useOracle(ref), job)

	sim, b, info := deltaGrid(Config{Seed: seed, TopK: k}, 8, 64)
	h := &Handle{request: Request{Job: job}}
	var got []candidate
	done := false
	b.matchPass(h, func(c []candidate) { got, done = c, true })
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

	// Steady state: a churned pass is answered with deltas, not re-pins.
	churn(t, info, 1)
	h = &Handle{request: Request{Job: job}}
	done = false
	b.matchPass(h, func([]candidate) { done = true })
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

// pagedRecord is one record as a cursor enumerates it.
type pagedRecord struct {
	rec  infosys.SiteRecord
	vals []any
	sc   *infosys.Schema
}

func readCursor(cur *infosys.Cursor) []pagedRecord {
	var out []pagedRecord
	for page, ok := cur.Next(); ok; page, ok = cur.Next() {
		for i := 0; i < page.Len(); i++ {
			out = append(out, pagedRecord{page.RecordShared(i), page.Values(i), page.Snapshot().Schema()})
		}
	}
	return out
}

// TestPinsFollowRegistry is the subscription's property test: after any
// random sequence of publishes, updates, removes and schema changes —
// including bursts past a shard's log depth that force re-pins — a
// poll must leave the subscriber pinned to exactly what a discovery
// query reads at that instant: the same records in the same order, each
// with the very flat vector the registry holds (no copy) against the
// same schema, none extra and none missing. Runs under -race in the CI
// matrix.
func TestPinsFollowRegistry(t *testing.T) {
	var polled Handle // counts the deltas and re-pins every poll received
	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(7000 + trial))
		sim, b, info := deltaGrid(Config{Seed: 1}, 4, 2)
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
						// re-flattens every shard the next poll pins.
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

			got := readCursor(infosys.PinnedCursor(s.pins, 3))
			want := readCursor(info.DiscoverImmediate(0))
			if len(got) != len(want) || len(want) != info.Len() {
				t.Fatalf("trial %d step %d: pins hold %d records, discovery reads %d of the registry's %d",
					trial, step, len(got), len(want), info.Len())
			}
			for i, w := range want {
				g := got[i]
				if !reflect.DeepEqual(g.rec, w.rec) {
					t.Fatalf("trial %d step %d: record %d pinned as %+v, registry %+v", trial, step, i, g.rec, w.rec)
				}
				if &g.vals[0] != &w.vals[0] || g.sc != w.sc {
					t.Fatalf("trial %d step %d: %s pinned with another vector or schema than the registry holds", trial, step, w.rec.Name)
				}
			}
		}
	}
	if polled.deltas < 100 || polled.repins < 100 {
		t.Fatalf("polls applied %d deltas and %d re-pins: the bursts no longer exercise both repairs", polled.deltas, polled.repins)
	}
}

// TestScanOrderIndependent pins that the per-record stage's kept set
// and counters do not depend on the order records arrive in, as the
// shard-major page order varies with the shard count. One record set is
// fed to the stage's per-page entry, the one the pipeline calls, as
// one-record pages (so predicates and admission slots are resolved
// per page as in a pass) name-sorted, reversed and shuffled, unbounded
// and with TopK cutting inside a group of equal preliminary ranks,
// where only the tie-break (seeded noise, or the site name in
// Deterministic mode) decides who is kept.
func TestScanOrderIndependent(t *testing.T) {
	job := equivJob(t)
	for _, det := range []bool{false, true} {
		for _, tc := range []struct{ topk, kept int }{{0, 22}, {1, 1}, {16, 16}} {
			sim, b := equivGrid(Config{Seed: 2006, TopK: tc.topk, Deterministic: det}, 4)
			// 24 sites pass Requirements in three Preferred groups of 8.
			// Quarantining one of rank 3 and one of rank 2 leaves groups
			// of 7, 7 and 8: TopK 1 cuts inside the first, TopK 16 inside
			// the last.
			b.quarantineNow("site02")
			b.quarantineNow("site07")

			snap := b.cfg.Info.(*infosys.Service).SnapshotImmediate()
			var pages []infosys.Page
			cur := infosys.PinnedCursor([]*infosys.Snapshot{snap}, 1)
			for page, ok := cur.Next(); ok; page, ok = cur.Next() {
				pages = append(pages, page)
			}
			feed := func(order []int) string {
				h := &Handle{request: Request{Job: job}}
				s := passScan{b: b, h: h, now: sim.Now(), nonce: 42}
				for _, i := range order {
					s.page(pages[i])
				}
				kept := make([]string, len(s.keep))
				for i, p := range s.keep {
					kept[i] = fmt.Sprintf("%s:%g:%g", p.st.Name(), p.prelim, p.noise)
				}
				sort.Strings(kept)
				return fmt.Sprintf("kept=%v peak=%d scanned=%d unavailable=%d", kept, h.peak, h.scanned, h.unavailable)
			}

			n := len(pages)
			sorted, reversed := make([]int, n), make([]int, n)
			for i := range sorted {
				sorted[i], reversed[i] = i, n-1-i
			}
			want := feed(sorted)
			if !strings.HasSuffix(want, fmt.Sprintf("] peak=%d scanned=30 unavailable=2", tc.kept)) {
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
// whole-snapshot oracle (on a plain index), from delta subscriptions,
// or through the log-less re-pin fallback.
func TestIncrementalRunsMatchSnapshotRuns(t *testing.T) {
	type outcome struct{ sites, states string }
	scenario := func(index func(*infosys.Service)) outcome {
		g := newGridOn(t, 8, 1, Config{Seed: 99}, index)
		if index == nil {
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

	ref := scenario(nil)
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"incremental/depth=64", 64},
		{"incremental/depth=0", 0}, // every poll re-pins
	} {
		if got := scenario(subscribable(tc.depth)); got != ref {
			t.Fatalf("%s diverged from the whole-snapshot run:\n  incremental: %+v\n  reference:   %+v",
				tc.name, got, ref)
		}
	}
}
