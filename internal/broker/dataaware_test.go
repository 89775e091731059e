package broker

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// dataJob is equivJob plus an InputData clause naming the given
// catalog datasets.
func dataJob(t *testing.T, names []string) *jdl.Job {
	t.Helper()
	list := ""
	for i, n := range names {
		if i > 0 {
			list += ", "
		}
		list += jdl.String(n).JDL()
	}
	job, err := jdl.ParseJob(`
Executable   = "iapp";
JobType      = {"interactive", "sequential"};
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank         = other.Preferred;
InputData    = {` + list + `};
`)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestDataAwareEquivalentAcrossPaths extends the PR 5/PR 8 oracle
// contract to data-aware ranking: with a non-empty catalog and a job
// that names datasets, the whole-snapshot oracle, the streamed paged
// pass, and the incremental delta pass must produce byte-for-byte
// identical candidate lists.
func TestDataAwareEquivalentAcrossPaths(t *testing.T) {
	const seed = 2006
	links := datacat.NewLinks(netsim.CampusGrid())
	links.SetBoth("site07", "site13", netsim.WideArea())
	cat := datacat.New(links)
	if err := cat.AddReplica("cal.db", 1<<30, "site00", "site13"); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddReplica("events.raw", 1<<29, "site07"); err != nil {
		t.Fatal(err)
	}
	job := dataJob(t, []string{"cal.db", "events.raw"})

	sim, ref := equivGrid(Config{Seed: seed, Data: cat, DataAware: true}, 1)
	want := runMatchPass(t, sim, useOracle(ref), job)
	if len(want) == 0 {
		t.Fatal("reference pass matched no sites")
	}
	wantLines := make([]string, len(want))
	for i, c := range want {
		wantLines[i] = candLine(c)
	}

	check := func(t *testing.T, got []candidate) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("kept %d candidates, reference kept %d", len(got), len(want))
		}
		for i := range got {
			if g := candLine(got[i]); g != wantLines[i] {
				t.Fatalf("candidate %d:\n  got:       %s\n  reference: %s", i, g, wantLines[i])
			}
		}
	}
	t.Run("streamed", func(t *testing.T) {
		sim, b := equivGrid(Config{Seed: seed, PageSize: 4, Data: cat, DataAware: true}, 8)
		check(t, runMatchPass(t, sim, b, job))
	})
	t.Run("streamed/topk=all", func(t *testing.T) {
		sim, b := equivGrid(Config{Seed: seed, PageSize: 3, TopK: 64, Data: cat, DataAware: true}, 8)
		check(t, runMatchPass(t, sim, b, job))
	})
	t.Run("incremental", func(t *testing.T) {
		sim, b, _ := deltaGrid(Config{Seed: seed, Incremental: true, Data: cat, DataAware: true}, 8, 64)
		check(t, runMatchPass(t, sim, b, job))
	})
}

// TestDataAwareIncrementalTracksCatalogChanges drives the delta
// subscriber across catalog mutations: after each AddReplica /
// DropReplica the incremental pass must agree with a freshly built
// whole-snapshot reference over the same catalog state.
func TestDataAwareIncrementalTracksCatalogChanges(t *testing.T) {
	const seed = 2006
	links := datacat.NewLinks(netsim.CampusGrid())
	cat := datacat.New(links)
	if err := cat.AddReplica("cal.db", 1<<30, "site03"); err != nil {
		t.Fatal(err)
	}
	job := dataJob(t, []string{"cal.db"})

	simInc, inc, _ := deltaGrid(Config{Seed: seed, Incremental: true, Data: cat, DataAware: true}, 8, 64)
	// The whole-snapshot reference advances in lockstep over the same
	// shared catalog, so each round compares equal pass indices.
	simRef, ref := equivGrid(Config{Seed: seed, Data: cat, DataAware: true}, 1)
	useOracle(ref)

	step := func(round int) {
		want := runMatchPass(t, simRef, ref, job)
		got := runMatchPass(t, simInc, inc, job)
		if len(got) != len(want) {
			t.Fatalf("round %d: incremental kept %d, reference kept %d", round, len(got), len(want))
		}
		for i := range got {
			if candLine(got[i]) != candLine(want[i]) {
				t.Fatalf("round %d candidate %d:\n  incremental: %s\n  reference:   %s",
					round, i, candLine(got[i]), candLine(want[i]))
			}
		}
	}
	step(0)
	if err := cat.AddReplica("cal.db", 1<<30, "site11"); err != nil {
		t.Fatal(err)
	}
	step(1)
	cat.DropReplica("cal.db", "site03")
	step(2)
	cat.DropReplica("cal.db", "site11") // zero replicas: every site excluded
	got := runMatchPass(t, simInc, inc, job)
	if len(got) != 0 {
		t.Fatalf("unobtainable dataset still matched %d sites", len(got))
	}
}

// TestDataAwarePlacementOptimality is the placement-optimality
// property harness: over seeded random catalogs, replica placements
// and asymmetric link profiles, the selected site is never strictly
// dominated — no other eligible site has (base rank ≥, staging ≤) with
// at least one strict inequality. Every candidate's final rank must
// also decompose exactly as base rank minus staging seconds, which is
// what makes the domination argument carry: a dominating site would
// have a strictly larger composed rank and would have been picked.
func TestDataAwarePlacementOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	names := []string{"d0", "d1"}
	for trial := 0; trial < 40; trial++ {
		links := datacat.NewLinks(netsim.CampusGrid())
		for k := 0; k < 6; k++ {
			a := fmt.Sprintf("site%02d", rng.Intn(30))
			b := fmt.Sprintf("site%02d", rng.Intn(30))
			p := netsim.Profile{
				OneWayDelay: time.Duration(rng.Intn(50)) * time.Millisecond,
				BytesPerSec: float64(1+rng.Intn(100)) * 1e6,
			}
			if rng.Intn(2) == 0 {
				links.SetBoth(a, b, p) // symmetric slow pair
			} else {
				links.Set(a, b, p) // asymmetric: only holder→site direction
			}
		}
		cat := datacat.New(links)
		for _, n := range names {
			size := int64(1+rng.Intn(8)) * (1 << 27)
			for r := 0; r < 1+rng.Intn(4); r++ {
				if err := cat.AddReplica(n, size, fmt.Sprintf("site%02d", rng.Intn(30))); err != nil {
					t.Fatal(err)
				}
			}
		}
		job := dataJob(t, names)

		sim, b := equivGrid(Config{Seed: 2006, PageSize: 4, Data: cat, DataAware: true}, 8)
		cands := runMatchPass(t, sim, b, job)
		if len(cands) == 0 {
			t.Fatalf("trial %d: no candidates despite replicated datasets", trial)
		}

		// Independent model of (base rank, staging) per eligible site.
		type point struct{ rank, stage float64 }
		model := map[string]point{}
		for i := 0; i < 30; i++ {
			if i%5 == 4 {
				continue // fails Requirements (Arch ppc)
			}
			name := fmt.Sprintf("site%02d", i)
			d, ok := cat.StagingTime(name, names)
			if !ok {
				continue
			}
			model[name] = point{rank: float64(1 + i%3), stage: d.Seconds()}
		}
		if len(cands) != len(model) {
			t.Fatalf("trial %d: pass kept %d sites, model says %d eligible", trial, len(cands), len(model))
		}
		for _, c := range cands {
			m, ok := model[c.site.Name()]
			if !ok {
				t.Fatalf("trial %d: ineligible site %s matched", trial, c.site.Name())
			}
			if c.rank != m.rank-m.stage {
				t.Fatalf("trial %d: %s rank %g, want base %g - staging %g",
					trial, c.site.Name(), c.rank, m.rank, m.stage)
			}
		}
		chosen := model[cands[0].site.Name()]
		for name, m := range model {
			if name == cands[0].site.Name() {
				continue
			}
			dominates := m.rank >= chosen.rank && m.stage <= chosen.stage &&
				(m.rank > chosen.rank || m.stage < chosen.stage)
			if dominates {
				t.Fatalf("trial %d: chose %s (rank %g, staging %gs) but %s strictly dominates (rank %g, staging %gs)",
					trial, cands[0].site.Name(), chosen.rank, chosen.stage, name, m.rank, m.stage)
			}
		}
	}
}

// TestDataStagingChargedAtSubmit checks that staging is a real
// simulated cost, not just a ranking term: a data-blind broker that
// places a job away from its replica pays the transfer on the sim
// clock and emits a DataStaged event, while the data-aware broker
// routes to the replica holder and stages nothing.
func TestDataStagingChargedAtSubmit(t *testing.T) {
	const dataset = "events.raw"
	scenario := func(aware bool) (siteName string, staged []trace.Event, turnaround time.Duration) {
		sim := simclock.NewSim(time.Time{})
		info := infosys.New(sim, 500*time.Millisecond)
		links := datacat.NewLinks(netsim.CampusGrid())
		cat := datacat.New(links)
		if err := cat.AddReplica(dataset, 1<<28, "site00"); err != nil {
			t.Fatal(err)
		}
		tr := trace.New(sim.Now)
		b := New(Config{
			Sim: sim, Info: info, Seed: 7,
			Data: cat, DataAware: aware, Trace: tr,
		})
		// site01 has more free CPUs, so the data-blind rank prefers it;
		// the replica lives on the smaller site00.
		for i, nodes := range []int{1, 2} {
			b.RegisterSite(site.New(sim, site.Config{
				Name:     fmt.Sprintf("site%02d", i),
				Nodes:    nodes,
				Network:  netsim.CampusGrid(),
				Costs:    site.DefaultCosts(),
				LRMCycle: 2 * time.Second,
			}))
		}
		sim.RunFor(time.Second)
		req := interactiveJob(jdl.ExclusiveAccess, 0, 1)
		req.Job.InputData = []string{dataset}
		h, err := b.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunFor(10 * time.Minute)
		if h.State() != Done {
			t.Fatalf("aware=%v: state = %v err = %v", aware, h.State(), h.Err())
		}
		for _, e := range tr.Events() {
			if e.Kind == trace.DataStaged {
				staged = append(staged, e)
			}
		}
		return h.Site(), staged, h.Turnaround()
	}

	awareSite, awareStaged, awareTurn := scenario(true)
	blindSite, blindStaged, blindTurn := scenario(false)

	if awareSite != "site00" {
		t.Fatalf("data-aware broker placed on %s, want the replica holder site00", awareSite)
	}
	if len(awareStaged) != 0 {
		t.Fatalf("data-aware run staged %d transfers, want 0 (local replica)", len(awareStaged))
	}
	if blindSite != "site01" {
		t.Fatalf("data-blind broker placed on %s, want the bigger site01", blindSite)
	}
	if len(blindStaged) != 1 || blindStaged[0].Dur <= 0 {
		t.Fatalf("data-blind run staged %v, want one transfer with positive duration", blindStaged)
	}
	wantStage := netsim.CampusGrid().TransferTimeBytes(1 << 28)
	if blindStaged[0].Dur != wantStage {
		t.Fatalf("staged duration = %v, want the link transfer time %v", blindStaged[0].Dur, wantStage)
	}
	if blindTurn <= awareTurn+wantStage/2 {
		t.Fatalf("turnaround: blind %v vs aware %v — staging cost not visible on the sim clock", blindTurn, awareTurn)
	}
}
