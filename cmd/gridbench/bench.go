package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// benchRecord is one benchmark measurement in BENCH_matchmaking.json.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the BENCH_matchmaking.json document. Baseline holds
// the pre-fast-path numbers (deep-copied discovery, AST-walking
// predicate evaluation, per-candidate attribute maps) recorded on the
// same benchmark before the optimization landed, so future changes
// can be judged against both points.
type benchReport struct {
	GeneratedBy string        `json:"generated_by"`
	GoVersion   string        `json:"go_version"`
	Baseline    []benchRecord `json:"baseline_pre_fastpath"`
	Results     []benchRecord `json:"results"`
}

// baselineRecords are the pre-optimization BenchmarkSelection numbers
// (serial probing; measured before the snapshot/compile/pool fast
// path was introduced).
var baselineRecords = []benchRecord{
	{Name: "Selection/sites=20/width=1", Iterations: 20, NsPerOp: 92979, BytesPerOp: 29888, AllocsPerOp: 362},
	{Name: "Selection/sites=100/width=1", Iterations: 20, NsPerOp: 377586, BytesPerOp: 142661, AllocsPerOp: 1722},
}

// benchJob is the representative interactive job the benchmarks
// match: string and numeric Requirements, arithmetic Rank over
// dynamic queue state.
func benchJob() (*jdl.Job, error) {
	return jdl.ParseJob(`
Executable   = "iapp";
JobType      = {"interactive", "sequential"};
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank         = other.FreeCPUs - other.QueuedJobs / 2;
`)
}

// benchGrid builds a broker over nSites published sites.
func benchGrid(nSites, probeWidth int) (*simclock.Sim, *broker.Broker) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	b := broker.New(broker.Config{Sim: sim, Info: info, ProbeWidth: probeWidth})
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

// benchSnapshot publishes n records and returns the resulting
// immutable snapshot, for the evaluation microbenchmarks.
func benchSnapshot(n int) *infosys.Snapshot {
	sim := simclock.NewSim(time.Time{})
	svc := infosys.New(sim, 0)
	for i := 0; i < n; i++ {
		svc.Publish(infosys.SiteRecord{
			Name:     fmt.Sprintf("site%03d", i),
			Attrs:    map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512 + i},
			FreeCPUs: 4, TotalCPUs: 4,
		})
	}
	return svc.SnapshotImmediate()
}

// bench runs the matchmaking benchmark suite and writes
// BENCH_matchmaking.json so successive revisions can track the
// trajectory of the selection hot path. A non-empty baseline path
// compares the fresh numbers against that committed report and fails
// when any shared benchmark slowed down by more than tolerance
// (fractional: 0.25 = 25%) — the CI regression gate.
func bench(out, baseline string, tolerance float64) error {
	job, err := benchJob()
	if err != nil {
		return err
	}
	rep := benchReport{
		GeneratedBy: "gridbench -exp bench",
		GoVersion:   runtime.Version(),
		Baseline:    baselineRecords,
	}
	add := func(name string, r testing.BenchmarkResult) {
		rep.Results = append(rep.Results, benchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("  %-34s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// Full matchmaking pass: discovery + selection, serial and
	// parallel probing.
	for _, n := range []int{20, 100} {
		for _, width := range []int{1, 16} {
			n, width := n, width
			r := testing.Benchmark(func(b *testing.B) {
				sim, br := benchGrid(n, width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					br.SelectionPassStatsAsync(job, func(broker.PassStats) {})
					sim.RunFor(time.Hour)
				}
			})
			add(fmt.Sprintf("Selection/sites=%d/width=%d", n, width), r)
		}
	}

	// Pooled attribute vectors: fetch, override dynamic state, release.
	snap := benchSnapshot(100)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := snap.MatchAttrs(i % snap.Len())
			m.SetFloat(infosys.AttrFreeCPUs, 3)
			m.SetFloat(infosys.AttrQueuedJobs, 1)
			m.Release()
		}
	})
	add("MatchAttrs/sites=100", r)

	// Compiled predicate evaluation vs the AST interpreter.
	req, rank := job.CompiledPredicates(snap.Schema())
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := snap.MatchAttrs(i % snap.Len())
			if ok, err := req.EvalBool(m.Values()); err != nil || !ok {
				b.Fatal("requirements should match", ok, err)
			}
			if _, err := rank.EvalNumber(m.Values()); err != nil {
				b.Fatal(err)
			}
			m.Release()
		}
	})
	add("CompiledEval/req+rank", r)

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attrs := snap.Record(i % snap.Len()).MatchAttrs()
			if ok, err := job.Requirements.EvalBool(attrs); err != nil || !ok {
				b.Fatal("requirements should match", ok, err)
			}
			if _, err := job.Rank.EvalNumber(attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("ASTEval/req+rank", r)

	if err := writeReport(out, rep); err != nil {
		return err
	}
	if baseline != "" {
		return gateReport(benchGate, rep, benchRows, baseline, tolerance)
	}
	return nil
}

// benchGate gates every benchmark's ns/op: growth beyond tolerance
// fails.
var benchGate = gate{exp: "bench", noun: "benchmark", width: 34, values: "%12.0f -> %12.0f ns/op"}

func benchRows(rep benchReport) []benchRow {
	rows := make([]benchRow, len(rep.Results))
	for i, r := range rep.Results {
		rows[i] = benchRow{r.Name, r.NsPerOp}
	}
	return rows
}
