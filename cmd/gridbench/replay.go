package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// replayReport is the BENCH_replay.json document: the paper's day
// experiment driven by a recorded SWF/GWF workload (or a generated
// synthetic archive) instead of the synthetic mix, swept over arrival
// speedups.
type replayReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	Trace       string `json:"trace"`
	Window      string `json:"window"`
	Seed        int64  `json:"seed"`
	// Sites and NodesPerSite record the simulated grid shape.
	Sites        int `json:"sites"`
	NodesPerSite int `json:"nodes_per_site"`
	// UsableJobs and DroppedRecords report trace data quality: how
	// many records normalized into replayable jobs and how many were
	// discarded (no submit time, or neither runtime nor request).
	UsableJobs     int                       `json:"usable_jobs"`
	DroppedRecords int                       `json:"dropped_records"`
	Points         []experiments.ReplayPoint `json:"points"`
}

// parseWindow parses the -window flag: "N:M" replays hours N..M of
// the trace, "N:" from N to the end, "" the whole trace.
func parseWindow(s string) (start, end float64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-window %q (want N:M hours)", s)
	}
	if lo != "" {
		if start, err = strconv.ParseFloat(lo, 64); err != nil {
			return 0, 0, fmt.Errorf("-window start %q: %w", lo, err)
		}
	}
	if hi != "" {
		if end, err = strconv.ParseFloat(hi, 64); err != nil {
			return 0, 0, fmt.Errorf("-window end %q: %w", hi, err)
		}
	}
	return start, end, nil
}

// parseSpeedups parses the -speedups flag, a comma-separated list of
// positive factors; "" keeps the sweep default (1,2,4).
func parseSpeedups(s string) ([]float64, error) {
	return parseList("-speedups", s, func(p string) (float64, bool) {
		v, err := strconv.ParseFloat(p, 64)
		return v, err == nil && v > 0
	})
}

// countTrace makes one streamed pass over the archive, counting
// usable jobs and dropped records without materializing anything. It
// doubles as an up-front check before the sweep spins up: a parse
// error, or an archive with no usable job, fails the command instead
// of writing an empty report.
func countTrace(path string) (usable, dropped int, err error) {
	tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer tr.Close()
	for {
		if _, err := tr.Next(); err != nil {
			if err != io.EOF {
				return 0, 0, err
			}
			if usable == 0 {
				return 0, tr.Dropped(), fmt.Errorf("%w: %s", workload.ErrNoUsableRecords, path)
			}
			return usable, tr.Dropped(), nil
		}
		usable++
	}
}

// replay drives the replay sweep over streamed trace ingest: each
// sweep point opens its own constant-memory reader, so even a
// million-job archive never materializes. The sweep is fully
// deterministic for a fixed trace + seed: two runs produce a
// byte-identical BENCH_replay.json (wall-clock throughput is printed,
// never written: benchmark/ owns host time), and with -traceout
// byte-identical event logs that pass -exp checktrace.
func replay(o options) error {
	// Replay is an allocation-heavy batch workload; relaxing the GC
	// target trades a bounded amount of extra heap (the live set stays
	// constant thanks to streamed ingest) for ~10% of wall time. An
	// explicit GOGC from the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	tracePath := o.trace
	if o.synth > 0 {
		if tracePath != "" {
			return fmt.Errorf("-trace and -synth are mutually exclusive")
		}
		// The synthetic mix targets ~69% utilization of an 8x16 grid
		// per 10k jobs/day at speedup 1, so the default shape scales
		// with the job count: a larger archive on a fixed grid would
		// measure saturation (mass failures and day-long queues), not
		// replay throughput.
		if o.sites == 0 {
			o.sites = 8 * ((o.synth + 9999) / 10000)
		}
		if o.nodes == 0 {
			o.nodes = 16
		}
		// Generated archives are cached at a fixed place under the OS
		// temp dir, so repeated benchmark runs reuse the (deterministic)
		// file instead of regenerating a million rows.
		dir := filepath.Join(os.TempDir(), "gridbench-synth")
		p, err := workload.SynthTracePath(dir, workload.SynthConfig{Jobs: o.synth, Seed: o.seed})
		if err != nil {
			return err
		}
		tracePath = p
	}
	if tracePath == "" {
		return fmt.Errorf("-trace or -synth is required (see EXPERIMENTS.md for public archives)")
	}
	start, end, err := parseWindow(o.window)
	if err != nil {
		return err
	}
	speedups, err := parseSpeedups(o.speedups)
	if err != nil {
		return err
	}
	usable, dropped, err := countTrace(tracePath)
	if err != nil {
		return err
	}

	cfg := experiments.ReplayConfig{
		Sites: o.sites, NodesPerSite: o.nodes,
		Speedups: speedups,
		Seed:     o.seed,
		Traced:   o.traceout != "",
		Source: func(speedup float64) (workload.ReplayStream, error) {
			tr, err := workload.OpenTraceReader(tracePath, workload.TraceReaderOptions{})
			if err != nil {
				return nil, err
			}
			return workload.NewStreamReplay(tr, workload.ReplayConfig{
				StartHour: start, EndHour: end, Speedup: speedup,
			})
		},
	}
	wallStart := time.Now()
	pts, err := experiments.ReplaySweep(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	fmt.Printf("Replay — %s (%d usable jobs, %d records dropped), window %q\n",
		filepath.Base(tracePath), usable, dropped, o.window)
	fmt.Println(experiments.RenderReplay(pts))
	total := 0
	for _, p := range pts {
		if p.Done+p.Failed+p.Pending != p.Submitted {
			return fmt.Errorf("replay: speedup %g lost jobs (%d done, %d failed, %d pending, %d submitted)",
				p.Speedup, p.Done, p.Failed, p.Pending, p.Submitted)
		}
		total += p.Submitted
	}
	rep := replayReport{
		GeneratedBy:    "gridbench -exp replay",
		GoVersion:      runtime.Version(),
		Trace:          filepath.Base(tracePath),
		Window:         o.window,
		Seed:           o.seed,
		Sites:          orDefault(o.sites, 4),
		NodesPerSite:   orDefault(o.nodes, 8),
		UsableJobs:     usable,
		DroppedRecords: dropped,
		Points:         pts,
	}
	if wall > 0 {
		fmt.Printf("replayed %d submissions in %v wall (%.0f jobs/s)\n",
			total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	}
	if err := writeReport(o.out, rep); err != nil {
		return err
	}
	traceOf := func(p experiments.ReplayPoint) trace.Trace { return p.Trace }
	partial := func(p experiments.ReplayPoint) bool { return p.Pending > 0 }
	if err := exportTraces("replay", o.traceout, pts, traceOf, partial); err != nil {
		return err
	}
	return gateReport(replayGate, rep, replayRows, o)
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// replayGate gates replay throughput against the simulated clock:
// per-point jobs/sec may not drop by more than tolerance.
var replayGate = gate{exp: "replay", noun: "throughput value", higherIsBetter: true,
	width: 28, values: "%12.1f -> %12.1f jobs/s"}

func replayRows(rep replayReport) []benchRow {
	rows := make([]benchRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = benchRow{fmt.Sprintf("sim-throughput/speedup=%g", p.Speedup), p.SimJobsPerSec}
	}
	return rows
}
