package main

import (
	"encoding/json"
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
	UsableJobs     int `json:"usable_jobs"`
	DroppedRecords int `json:"dropped_records"`
	// WallSeconds and WallJobsPerSec measure real time over the whole
	// sweep (total submissions / wall seconds). They are the only
	// machine-dependent fields; -nowall zeroes them so determinism
	// checks can byte-compare two runs.
	WallSeconds    float64                   `json:"wall_seconds"`
	WallJobsPerSec float64                   `json:"wall_jobs_per_sec"`
	Points         []experiments.ReplayPoint `json:"points"`
}

// replayOpts carries the -exp replay flag set.
type replayOpts struct {
	trace     string  // -trace: SWF/GWF file
	synth     int     // -synth: generate this many synthetic jobs instead
	out       string  // -replayout
	traceout  string  // -traceout
	window    string  // -window
	speedups  string  // -speedups
	seed      int64   // -seed
	sites     int     // -sites (0 = auto)
	nodes     int     // -nodes (0 = auto)
	nowall    bool    // -nowall
	baseline  string  // -replaybaseline
	tolerance float64 // -tolerance
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

// parseSpeedups parses the -speedups flag, a comma-separated factor
// list; "" keeps the sweep default (1,2,4).
func parseSpeedups(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-speedups %q: %q is not a positive factor", s, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// countTrace makes one streamed pass over the archive, counting
// usable jobs and dropped records without materializing anything. It
// doubles as an up-front parse check before the sweep spins up.
func countTrace(path string) (usable, dropped int, err error) {
	tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer tr.Close()
	for {
		if _, err := tr.Next(); err != nil {
			if err == io.EOF {
				return usable, tr.Dropped(), nil
			}
			return 0, 0, err
		}
		usable++
	}
}

// synthDir is the cache directory for generated archives: a fixed
// location under the OS temp dir, so repeated benchmark runs reuse
// the (deterministic) file instead of regenerating a million rows.
func synthDir() string { return filepath.Join(os.TempDir(), "gridbench-synth") }

// replay drives the replay sweep over streamed trace ingest: each
// sweep point opens its own constant-memory reader, so even a
// million-job archive never materializes. The sweep is fully
// deterministic for a fixed trace + seed: two runs produce a
// byte-identical BENCH_replay.json up to the wall-clock fields (zero
// them with -nowall), and with -traceout byte-identical event logs
// that pass -exp checktrace.
func replay(o replayOpts) error {
	// Replay is an allocation-heavy batch workload; relaxing the GC
	// target trades a bounded amount of extra heap (the live set stays
	// constant thanks to streamed ingest) for ~10%% of wall time. An
	// explicit GOGC from the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	tracePath := o.trace
	if o.synth > 0 {
		if tracePath != "" {
			return fmt.Errorf("-trace and -synth are mutually exclusive")
		}
		// The synthetic mix targets ~69%% utilization of an 8x16 grid
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
		p, err := workload.SynthTracePath(synthDir(), workload.SynthConfig{Jobs: o.synth, Seed: o.seed})
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
		StartHour: start, EndHour: end,
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
	if !o.nowall && wall > 0 {
		rep.WallSeconds = wall.Seconds()
		rep.WallJobsPerSec = float64(total) / wall.Seconds()
		fmt.Printf("replayed %d submissions in %v wall (%.0f jobs/s)\n",
			total, wall.Round(time.Millisecond), rep.WallJobsPerSec)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	if o.traceout != "" {
		if err := exportReplayTraces(o.traceout, pts); err != nil {
			return err
		}
	}
	if o.baseline != "" {
		return compareReplay(rep, o.baseline, o.tolerance)
	}
	return nil
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// compareReplay gates replay throughput against a committed
// BENCH_replay.json, mirroring the matchmaking and infosys gates:
// per-point simulated-time jobs/sec and sweep-level wall-clock
// jobs/sec may not drop by more than tolerance (fractional; 0.25 =
// 25%). Points present on only one side are reported, never failed.
func compareReplay(rep replayReport, baseline string, tolerance float64) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base replayReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("replay: parsing baseline %s: %w", baseline, err)
	}
	old := make(map[float64]experiments.ReplayPoint, len(base.Points))
	for _, p := range base.Points {
		old[p.Speedup] = p
	}
	var regressed []string
	check := func(name string, baseV, newV float64) {
		if baseV <= 0 {
			return
		}
		delta := (newV - baseV) / baseV
		verdict := "ok"
		if delta < -tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, name)
		}
		fmt.Printf("  %-28s %12.1f -> %12.1f jobs/s (%+.1f%%) %s\n", name, baseV, newV, 100*delta, verdict)
	}
	for _, p := range rep.Points {
		b, ok := old[p.Speedup]
		if !ok {
			fmt.Printf("  speedup=%g: new point, no baseline\n", p.Speedup)
			continue
		}
		check(fmt.Sprintf("sim-throughput/speedup=%g", p.Speedup), b.SimJobsPerSec, p.SimJobsPerSec)
	}
	check("wall-throughput/sweep", base.WallJobsPerSec, rep.WallJobsPerSec)
	if len(regressed) > 0 {
		return fmt.Errorf("replay: %d throughput value(s) regressed beyond %.0f%% vs %s: %v",
			len(regressed), 100*tolerance, baseline, regressed)
	}
	fmt.Printf("no throughput regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}

// exportReplayTraces checks every cell's event log against the trace
// invariants — the strict drained-grid checks when the cell emptied,
// the structural subset when jobs were left pending — and writes the
// logs as one JSONL stream.
func exportReplayTraces(path string, pts []experiments.ReplayPoint) error {
	traces := make([]trace.Trace, 0, len(pts))
	events := 0
	for _, p := range pts {
		check := trace.CheckComplete
		if p.Pending > 0 {
			check = trace.Check
		}
		if v := check(p.Trace.Events); len(v) != 0 {
			return fmt.Errorf("replay: %s: %d trace invariant violations, first: %s",
				p.Trace.Label, len(v), v[0])
		}
		events += len(p.Trace.Events)
		traces = append(traces, p.Trace)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d events, invariants clean)\n", path, len(traces), events)
	return nil
}
