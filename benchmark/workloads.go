package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"crossbroker/internal/experiments"
	"crossbroker/internal/workload"
)

// spec is one benchmark workload. Every input is generated from the
// seed by the harness; the program sees only the generated files and
// values.
type spec struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json carries the
	// same text).
	why string
	// jobs, sites and nodes size the input and the grid.
	jobs, sites, nodes int
	// speedup compresses the arrivals of a replayed archive.
	speedup float64
	// churn marks the workload whose grid the harness builds itself.
	churn bool
	// pendingOK: the grid is saturated on purpose, so the bounded drain
	// may leave jobs pending.
	pendingOK bool
}

var specs = []spec{
	{
		name: "replay-day",
		why:  "100k-job synthetic day streamed through the replay sweep on 80x16: every layer does a typical share of the work",
		jobs: 100000, sites: 80, nodes: 16, speedup: 1,
	},
	{
		name: "replay-wide",
		why:  "20k jobs on 800x16: the per-submission registry scan dominates and the engine does little",
		jobs: 20000, sites: 800, nodes: 16, speedup: 1,
	},
	{
		name: "replay-overload",
		why:  "60k jobs at speedup 4 on 48x16: saturated grid, deep broker queue, retry pacing and the rejection path",
		jobs: 60000, sites: 48, nodes: 16, speedup: 4, pendingOK: true,
	},
	{
		name: "registry-churn",
		why:  "2k JDL jobs with Requirements and Rank on 1000x4 sharded registry, 16 publishes between arrivals: registry writes beside reads",
		jobs: 2000, sites: 1000, nodes: 4, churn: true,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the job count (the smoke test runs at 1/50); the
// grid keeps its shape so the same layers still do the work.
func (s spec) scaled(div int) spec {
	if div > 1 {
		s.jobs /= div
	}
	return s
}

// burstEvery is how many jobs lie between two bursts of the
// speedometer.
func (s spec) burstEvery() int { return max(1, s.jobs/burstsPerRun) }

// runFunc is a workload after set-up: inputs written and validated,
// the grid built where the harness owns it. It submits every job and
// drains the grid, with the program's own tracing on when the set-up
// was given a recorder.
type runFunc func(meter *speedometer) (experiments.ReplayPoint, error)

// setup is "seed to first job can be submitted". dir is the child's
// fresh directory for this set-up's files.
func (s spec) setup(seed int64, dir string, rec *recorder) (runFunc, error) {
	if s.churn {
		return setupChurn(s, seed, dir, rec)
	}
	return setupReplay(s, seed, dir, rec)
}

func setupReplay(s spec, seed int64, dir string, rec *recorder) (runFunc, error) {
	path := filepath.Join(dir, "archive.swf")
	id := rec.begin("setup.generate")
	err := writeArchive(path, workload.SynthConfig{Jobs: s.jobs, Seed: seed})
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("setup.validate")
	usable, err := countArchive(path)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if usable != s.jobs {
		return nil, fmt.Errorf("%s: archive has %d usable jobs, generated %d", s.name, usable, s.jobs)
	}

	return func(meter *speedometer) (experiments.ReplayPoint, error) {
		id := rec.begin("replay")
		defer rec.end(id)
		pts, err := experiments.ReplaySweep(experiments.ReplayConfig{
			Sites: s.sites, NodesPerSite: s.nodes,
			Speedups: []float64{s.speedup},
			Seed:     seed,
			Workers:  1,
			Traced:   rec != nil,
			Source: func(speedup float64) (workload.ReplayStream, error) {
				tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
				if err != nil {
					return nil, err
				}
				var st workload.ReplayStream
				st, err = workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: speedup})
				if err != nil {
					return nil, err
				}
				if rec != nil {
					st = timedStream{st, rec}
				}
				return &pacedStream{ReplayStream: st, meter: meter, every: s.burstEvery()}, nil
			},
		})
		if err != nil {
			return experiments.ReplayPoint{}, err
		}
		return pts[0], nil
	}, nil
}

func writeArchive(path string, cfg workload.SynthConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteSynthSWF(f, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countArchive is the validating streamed pass: it parses every
// record once and counts the usable ones.
func countArchive(path string) (int, error) {
	tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	n := 0
	for {
		if _, err := tr.Next(); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return 0, err
		}
		n++
	}
}
