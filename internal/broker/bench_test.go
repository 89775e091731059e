package broker

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// benchSelectionJob is a representative interactive job: Requirements
// exercises string and numeric comparisons, Rank exercises arithmetic
// over the dynamic queue state.
func benchSelectionJob(tb testing.TB) *jdl.Job {
	job, err := jdl.ParseJob(`
Executable   = "iapp";
JobType      = {"interactive", "sequential"};
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank         = other.FreeCPUs - other.QueuedJobs / 2;
`)
	if err != nil {
		tb.Fatal(err)
	}
	return job
}

// benchBroker builds a broker over nSites published sites.
func benchBroker(tb testing.TB, nSites int, cfg Config) (*simclock.Sim, *Broker) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	cfg.Sim = sim
	cfg.Info = info
	b := New(cfg)
	for i := 0; i < nSites; i++ {
		b.RegisterSite(site.New(sim, site.Config{
			Name:    fmt.Sprintf("site%03d", i),
			Nodes:   4,
			Network: netsim.WideArea(),
			Costs:   site.DefaultCosts(),
			// Keep republish events out of the measured passes.
			PublishInterval: 10000 * time.Hour,
			Attrs:           map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512 + i},
		}))
	}
	sim.RunFor(time.Second) // let the initial publishes land
	return sim, b
}

// BenchmarkSelection measures one full matchmaking pass — information
// system discovery plus the selection phase (requirements filtering,
// direct site probes, ranking) — per iteration. Allocations per op are
// the headline metric: the pass runs once per submission and once per
// resubmission retry, with the user waiting. The unbounded arms keep
// and probe every site; sites=48/topk=16 is the replay-overload pass,
// which keeps the 16 best of 48 and probes those.
func BenchmarkSelection(b *testing.B) {
	for _, c := range []struct{ sites, topk int }{{20, 0}, {100, 0}, {48, 16}} {
		name := fmt.Sprintf("sites=%d", c.sites)
		if c.topk > 0 {
			name += fmt.Sprintf("/topk=%d", c.topk)
		}
		b.Run(name, func(b *testing.B) {
			sim, br := benchBroker(b, c.sites, Config{TopK: c.topk})
			h := &Handle{request: Request{Job: benchSelectionJob(b)}}
			want := c.sites
			if c.topk > 0 {
				want = c.topk
			}
			var cands int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.matchPass(h, func(c []candidate) { cands = len(c) })
				sim.RunFor(time.Hour)
			}
			b.StopTimer()
			if cands != want {
				b.Fatalf("selection kept %d of %d sites, want %d", cands, c.sites, want)
			}
		})
	}
}
