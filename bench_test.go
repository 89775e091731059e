// Package crossbroker's top-level benchmarks regenerate every table
// and figure of the paper's evaluation (Section 6) as testing.B
// benchmarks, printing the reproduced numbers as benchmark metrics:
//
//	go test -bench=BenchmarkTableI -benchmem        # Table I
//	go test -bench=BenchmarkFigure6 -benchmem       # campus streaming
//	go test -bench=BenchmarkFigure7 -benchmem       # wide-area streaming
//	go test -bench=BenchmarkFigure8 -benchmem       # VM load overhead
//	go test -bench=BenchmarkAblation -benchmem      # design-choice studies
//
// The full-scale regeneration (1,000 sequences, 100 runs, paper-exact
// latencies) is cmd/gridbench; the benchmarks here use reduced sizes
// and scaled networks so `go test -bench=.` completes in minutes while
// preserving every reported shape.
package crossbroker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/experiments"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// BenchmarkTableI regenerates Table I (response time per submission
// method). Reported metrics are mean seconds per phase.
func BenchmarkTableI(b *testing.B) {
	for _, scenario := range []experiments.Scenario{experiments.Campus, experiments.IFCA} {
		scenario := scenario
		b.Run(string(scenario), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.TableI(experiments.TableIConfig{
					Sites: 20, Runs: 5, Scenario: scenario, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, r := range rows {
						name := strings.NewReplacer(" ", "_", "+", "_").Replace(r.Method)
						b.ReportMetric(r.Submission.Mean, name+"_submit_s")
					}
					b.Logf("\n%s", experiments.RenderTableI(scenario, rows))
				}
			}
		})
	}
}

// benchPingPong measures one (method, size) cell of Figures 6/7 as a
// per-round-trip benchmark.
func benchPingPong(b *testing.B, profile netsim.Profile, method experiments.Method, size int) {
	series, err := experiments.PingPongOne(method, size, experiments.PingPongConfig{
		Profile:  profile,
		Sizes:    []int{size},
		Rounds:   b.N,
		SpillDir: b.TempDir(),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sum := series.Summarize()
	b.ReportMetric(sum.Mean*1e3, "ms/roundtrip")
	b.ReportMetric(sum.Stddev*1e3, "ms/sd")
}

// BenchmarkFigure6 regenerates Figure 6: campus-grid round-trip times
// for 10 B and 10 KB messages across the four mechanisms.
func BenchmarkFigure6(b *testing.B) {
	profile := netsim.CampusGrid()
	for _, m := range experiments.AllMethods() {
		for _, size := range []int{10, 10000} {
			b.Run(fmt.Sprintf("%s/%dB", m, size), func(b *testing.B) {
				benchPingPong(b, profile, m, size)
			})
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the same over the wide-area
// UAB<->IFCA path (delays scaled 10x down to keep bench time sane; the
// ordering between methods is latency-dominated and preserved).
func BenchmarkFigure7(b *testing.B) {
	profile := netsim.WideArea().Scale(0.1)
	for _, m := range experiments.AllMethods() {
		for _, size := range []int{10, 10000} {
			b.Run(fmt.Sprintf("%s/%dB", m, size), func(b *testing.B) {
				benchPingPong(b, profile, m, size)
			})
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: per-iteration CPU and I/O
// times of the interactive loop under each sharing regime.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := experiments.Fig8(experiments.Fig8Config{Iterations: 100})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ref := cases[0].CPU.Summarize().Mean
			for _, c := range cases {
				cpu := c.CPU.Summarize().Mean
				b.ReportMetric(cpu, c.Name+"_cpu_s")
				if c.Name != "exclusive" {
					b.ReportMetric((cpu/ref-1)*100, c.Name+"_loss_pct")
				}
			}
			b.Logf("\n%s", experiments.RenderFig8(cases))
		}
	}
}

// BenchmarkLoadSweep regenerates the interactive-availability-vs-load
// study (the paper's motivating claim for multiprogramming).
func BenchmarkLoadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.LoadSweep([]float64{0, 1.0}, experiments.LoadSweepConfig{
			Sites: 2, NodesPerSite: 2, Interactive: 4,
			BatchWork: 30 * time.Minute, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				policy := "excl"
				if p.Multiprogramming {
					policy = "mp"
				}
				b.ReportMetric(float64(p.Succeeded),
					fmt.Sprintf("ok_load%.0f_%s", p.BatchLoad*100, policy))
			}
			b.Logf("\n%s", experiments.RenderLoadSweep(pts))
		}
	}
}

// BenchmarkAblationBlockSize regenerates the buffer-size ablation
// behind the paper's "larger internal buffers" explanation.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{256, 4096} {
		bs := bs
		b.Run(fmt.Sprintf("block%d", bs), func(b *testing.B) {
			res, err := experiments.BlockSizeSweep(netsim.CampusGrid(), []int{bs}, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res[bs].Mean*1e3, "ms/10KB-roundtrip")
		})
	}
}

// BenchmarkAblationLease regenerates the exclusive-temporal-access
// lease sweep.
func BenchmarkAblationLease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LeaseSweep(
			[]time.Duration{time.Nanosecond, time.Minute}, 6, 6, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(float64(r.Resubmissions), fmt.Sprintf("resub_lease_%v", r.Lease))
			}
		}
	}
}

// BenchmarkAblationQuantum regenerates the stride-quantum accuracy
// sweep.
func BenchmarkAblationQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.QuantumSweep([]time.Duration{time.Millisecond, 100 * time.Millisecond}, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.MeasuredLoss*100, fmt.Sprintf("loss_pct_q%v", r.Quantum))
			}
		}
	}
}

// BenchmarkBrokerSubmission measures the broker's raw scheduling
// throughput (submissions scheduled per second of real time) on the
// default grid — an engineering benchmark, not a paper figure.
func BenchmarkBrokerSubmission(b *testing.B) {
	sys := core.NewSystem(core.SystemConfig{
		Sites: []core.SiteSpec{
			{Name: "a", Nodes: 64}, {Name: "b", Nodes: 64},
			{Name: "c", Nodes: 64}, {Name: "d", Nodes: 64},
		},
		FairShare: &fairshare.Config{},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := sys.Submit(broker.Request{
			Job:  &jdl.Job{Executable: "bench", Interactive: true, NodeNumber: 1, Access: jdl.ExclusiveAccess},
			User: "bench",
			CPU:  time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !sys.RunUntilDone(h, time.Hour) {
			b.Fatalf("job stuck: %v %v", h.State(), h.Err())
		}
	}
}

// BenchmarkConsoleThroughput measures raw Grid Console streaming
// throughput for bulk output in both modes.
func BenchmarkConsoleThroughput(b *testing.B) {
	for _, mode := range []jdl.StreamingMode{jdl.FastStreaming, jdl.ReliableStreaming} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var m experiments.Method = experiments.Fast
			if mode == jdl.ReliableStreaming {
				m = experiments.Reliable
			}
			series, err := experiments.PingPongOne(m, 10000, experiments.PingPongConfig{
				Profile:  netsim.Loopback(),
				Rounds:   b.N,
				SpillDir: b.TempDir(),
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			sum := series.Summarize()
			b.SetBytes(2 * 10000)
			b.ReportMetric(sum.Mean*1e6, "us/roundtrip")
		})
	}
}
