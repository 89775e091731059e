package broker

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/glidein"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// freeAgentsByCursor is the reference for freeAgentsMatching's
// Requirements filter: page the whole registry as a discovery read
// started now would, decide every record it holds, and keep the free
// agents whose site passed, in free-list order.
func freeAgentsByCursor(b *Broker, job *jdl.Job) []string {
	pass := make(map[string]bool)
	cur := b.cfg.Info.DiscoverImmediate(3)
	for page, ok := cur.Next(); ok; page, ok = cur.Next() {
		req := jdl.Compile(job.Requirements, page.Snapshot().Schema())
		for i := 0; i < page.Len(); i++ {
			v, err := req.EvalBool(page.Values(i))
			pass[page.Name(i)] = err == nil && v
		}
	}
	var out []string
	for _, a := range b.freeAgents {
		if pass[a.Site().Name()] {
			out = append(out, a.ID())
		}
	}
	return out
}

// sharedReadGrid is a 16-shard registry of sites with MemoryMB 256 to
// 1024 and a free agent on every node (long batch jobs), plus one
// agent on a site that never published to the registry.
func sharedReadGrid(t *testing.T) (*simclock.Sim, *infosys.Service, *Broker, []*site.Site) {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	info := infosys.NewSharded(sim, 500*time.Millisecond, 16)
	b := New(Config{Sim: sim, Info: info, Seed: 3})
	var sites []*site.Site
	for i := 0; i < 24; i++ {
		st := site.New(sim, site.Config{
			Name: fmt.Sprintf("site%02d", i), Nodes: 2, Network: netsim.CampusGrid(),
			Costs: site.DefaultCosts(), LRMCycle: 2 * time.Second,
			PublishInterval: 10000 * time.Hour,
			Attrs:           map[string]any{"Arch": []string{"i686", "ppc"}[i%2], "MemoryMB": 256 + 32*i},
		})
		b.RegisterSite(st)
		sites = append(sites, st)
	}
	for range 2 * len(sites) {
		if _, err := b.Submit(batchJob(100 * time.Hour)); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(2 * time.Minute)
	}
	hidden := site.New(sim, site.Config{
		Name: "unlisted", Nodes: 1, Network: netsim.CampusGrid(),
		Costs: site.DefaultCosts(), LRMCycle: 2 * time.Second,
		Attrs: map[string]any{"Arch": "i686", "MemoryMB": 4096},
	})
	glidein.LaunchAsync(sim, hidden, nil, 10, glidein.Options{}, func(a *glidein.Agent, _ *batch.Handle, err error) {
		if err != nil {
			t.Fatal(err)
		}
		b.wireAgent(a)
	})
	sim.RunFor(10 * time.Minute)
	if got, want := b.FreeAgents(), 2*len(sites)+1; got != want {
		t.Fatalf("FreeAgents = %d, want %d (one per node and the unlisted site's)", got, want)
	}
	return sim, info, b, sites
}

// TestFreeAgentsMatchingAgreesWithCursor holds the shared flow's
// by-name registry read to a whole-registry cursor: on a 16-shard
// registry, under a partition cut while publishes change verdicts,
// after the heal, for a removed site and for a site that never
// published.
func TestFreeAgentsMatchingAgreesWithCursor(t *testing.T) {
	_, info, b, sites := sharedReadGrid(t)
	reqs := []string{
		`other.MemoryMB >= 512`,
		`other.Arch == "i686" && other.MemoryMB < 768`,
		`other.Arch != "PPC" || other.MemoryMB > 900`,
		`other.FreeCPUs >= 2`,
		`other.Missing == 1`,
	}
	jobs := make([]*jdl.Job, len(reqs))
	for i, r := range reqs {
		jobs[i] = mustParseJob(t, `Executable = "mpi"; JobType = {"interactive", "mpich-g2"};
NodeNumber = 2; MachineAccess = "shared"; Requirements = `+r+`;`)
	}
	check := func(step string) [][]string {
		t.Helper()
		var all [][]string
		for i, job := range jobs {
			var got []string
			for _, a := range b.freeAgentsMatching(job, 0) {
				got = append(got, a.ID())
			}
			want := freeAgentsByCursor(b, job)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, Requirements = %s:\n  by name: %v\n  cursor:  %v", step, reqs[i], got, want)
			}
			all = append(all, got)
		}
		return all
	}
	before := check("16 shards")
	if n := len(before[0]); n == 0 || n >= b.FreeAgents()-1 {
		t.Fatalf("MemoryMB >= 512 admits %d of %d agents; the grid must split it", n, b.FreeAgents())
	}

	// Flip every site's memory across 512 while the index is cut: the
	// cut view must still decide.
	info.SetPartitioned(true)
	for i, st := range sites {
		mem := 1024
		if 256+32*i >= 512 {
			mem = 128
		}
		if err := info.Publish(infosys.SiteRecord{
			Name: st.Name(), TotalCPUs: 2, FreeCPUs: 2,
			Attrs: map[string]any{"Arch": []string{"i686", "ppc"}[i%2], "MemoryMB": mem},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if cut := check("partitioned"); !slices.Equal(cut[0], before[0]) {
		t.Fatalf("under the cut MemoryMB >= 512 admits %v, want the cut-time %v", cut[0], before[0])
	}
	info.SetPartitioned(false)
	if healed := check("healed"); slices.Equal(healed[0], before[0]) {
		t.Fatal("the publishes made under the cut changed no verdict")
	}

	info.Remove(sites[0].Name())
	info.Remove(sites[23].Name())
	for _, got := range check("removed") {
		for _, id := range got {
			for _, a := range b.freeAgents {
				if a.ID() == id && (a.Site() == sites[0] || a.Site() == sites[23] || a.Site().Name() == "unlisted") {
					t.Fatalf("agent %s on %s matched without a published record", id, a.Site().Name())
				}
			}
		}
	}
}

// TestJobClassesShareCompiledPrograms checks that a broker compiles a
// job class once: jobs parsed separately from one text hold the same
// programs after their passes, and jobs whose Requirements or Rank
// differ do not.
func TestJobClassesShareCompiledPrograms(t *testing.T) {
	g := newGrid(t, 4, 2, Config{Seed: 1})
	const src = `Executable = "a"; Requirements = other.OS == "linux" && other.FreeCPUs >= 1; Rank = other.FreeCPUs;`
	parse := func(s string) *jdl.Job { return mustParseJob(t, s) }
	a, a2 := parse(src), parse(src)
	otherReq := parse(`Executable = "a"; Requirements = other.OS == "linux" && other.FreeCPUs >= 2; Rank = other.FreeCPUs;`)
	otherRank := parse(`Executable = "a"; Requirements = other.OS == "linux" && other.FreeCPUs >= 1; Rank = other.FreeCPUs * 2;`)
	for _, job := range []*jdl.Job{a, a2, otherReq, otherRank} {
		runPassResult(t, g.sim, g.b, job)
	}
	sc := g.info.SnapshotImmediate().Schema()
	// A nil Classes returns the job's own cached programs, or compiles
	// afresh if the pass left none for this schema.
	reqA, rankA := a.CompiledPredicates(sc, nil)
	reqA2, rankA2 := a2.CompiledPredicates(sc, nil)
	if reqA == nil || rankA == nil || reqA != reqA2 || rankA != rankA2 {
		t.Fatalf("same class: programs %p %p and %p %p, want one shared pair", reqA, rankA, reqA2, rankA2)
	}
	for _, job := range []*jdl.Job{otherReq, otherRank} {
		req, rank := job.CompiledPredicates(sc, nil)
		if req == reqA || rank == rankA {
			t.Fatalf("job %s / %s shares the programs of another class", job.Requirements.Node, job.Rank.Node)
		}
	}
}
