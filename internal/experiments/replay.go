package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// ReplaySweep drives the full broker stack with a recorded workload
// (SWF/GWF via internal/workload's trace ingest) instead of the
// synthetic day mix: each sweep point replays the same trace window
// at a different arrival speedup, so one published log yields a
// load-response curve of the paper's Table I metrics — interactive
// startup latency, batch turnaround, goodput. Everything runs in
// virtual time and is deterministic for a fixed trace + seed; two
// runs produce byte-identical point lists.

// ReplayPoint is one (trace window, speedup) measurement.
type ReplayPoint struct {
	// Speedup is the arrival-compression factor for this point
	// (inter-arrival gaps divided by Speedup, runtimes untouched).
	Speedup float64 `json:"speedup"`
	// Submitted counts the replayed jobs, split by the classification
	// rule.
	Submitted   int `json:"submitted"`
	Interactive int `json:"interactive"`
	Batch       int `json:"batch"`
	// Done and Failed are the terminal outcomes; Pending counts jobs
	// the bounded drain window left unfinished (0 for traces that fit
	// the grid).
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Pending int `json:"pending"`
	// FailedBy splits Failed by reason (tally.FailedBy).
	FailedBy map[string]int `json:"failed_by,omitempty"`
	// GoodputPct is Done/Submitted.
	GoodputPct float64 `json:"goodput_pct"`
	// MeanStartupSec and P95StartupSec summarize submission-to-first-
	// output of successful interactive jobs, in seconds.
	MeanStartupSec float64 `json:"mean_startup_sec"`
	P95StartupSec  float64 `json:"p95_startup_sec"`
	// SharedPlacements counts interactive jobs hosted on interactive
	// VMs (the paper's multiprogramming mechanism).
	SharedPlacements int `json:"shared_placements"`
	// MeanTurnaroundH and P95TurnaroundH summarize batch turnaround in
	// hours.
	MeanTurnaroundH float64 `json:"mean_turnaround_hours"`
	P95TurnaroundH  float64 `json:"p95_turnaround_hours"`
	// Resubmissions is the total failure-driven resubmission count
	// across jobs that reached a terminal state.
	Resubmissions int `json:"resubmissions"`
	// CappedWidths counts jobs whose recorded width exceeded the
	// biggest site and was clamped to fit.
	CappedWidths int `json:"capped_widths"`
	// SimSeconds is the virtual time the point consumed (arrival
	// window plus drain) and SimJobsPerSec the replay throughput
	// against the simulated clock. Both are deterministic — wall-clock
	// throughput lives in the gridbench report, not here, so the point
	// list stays byte-identical run over run.
	SimSeconds    float64 `json:"sim_seconds"`
	SimJobsPerSec float64 `json:"sim_jobs_per_sec"`
	// Trace is the cell's event log when ReplayConfig.Traced is set
	// (excluded from the JSON summary; export with trace.WriteJSONL).
	Trace trace.Trace `json:"-"`
}

// ReplayConfig parametrizes the sweep.
type ReplayConfig struct {
	// Source supplies a fresh replay stream per sweep point — streamed
	// ingest at constant memory, no materialized job slice. It receives
	// the point's speedup and must return a stream positioned at the
	// first job; the sweep closes it. The trace window, the
	// interactive/batch classification rule and the interactive
	// PerformanceLoss belong to the stream (workload.ReplayConfig).
	Source func(speedup float64) (workload.ReplayStream, error)
	// Sites and NodesPerSite shape the grid (default 4x8).
	Sites, NodesPerSite int
	// Speedups are the arrival-compression factors to sweep (default
	// 1, 2, 4).
	Speedups []float64
	// Seed drives broker randomization.
	Seed int64
	// Workers bounds concurrent points; 0 uses one per CPU.
	Workers int
	// Traced records every cell's event log on its own virtual clock.
	Traced bool
}

func (c *ReplayConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 8
	}
	if len(c.Speedups) == 0 {
		c.Speedups = []float64{1, 2, 4}
	}
}

// ReplaySweep runs one independent simulation per speedup.
func ReplaySweep(cfg ReplayConfig) ([]ReplayPoint, error) {
	cfg.setDefaults()
	if cfg.Source == nil {
		return nil, fmt.Errorf("experiments: replay: no trace source (open one with workload.OpenTraceReader and NewStreamReplay)")
	}
	return runCells(len(cfg.Speedups), cfg.Workers, func(i int) (ReplayPoint, error) {
		p, err := replayPoint(cfg.Speedups[i], int64(i), cfg)
		if err != nil {
			return p, fmt.Errorf("experiments: replay speedup %g: %w", cfg.Speedups[i], err)
		}
		return p, nil
	})
}

// recoveryConfig is the bounded-recovery broker posture the replay,
// chaos and federation sweeps share: capped resubmission with
// exponential backoff, so every job reaches a terminal state even when
// the workload overloads the grid or faults keep hitting it. Heartbeat
// monitoring and the circuit breaker run at the broker's defaults.
// Callers set their own fields on the returned value.
func recoveryConfig() broker.Config {
	return broker.Config{
		MaxResubmits:  10,
		RetryInterval: 15 * time.Second, RetryBackoff: 2, RetryMaxInterval: 4 * time.Minute,
	}
}

func replayPoint(speedup float64, idx int64, cfg ReplayConfig) (ReplayPoint, error) {
	p := ReplayPoint{Speedup: speedup}
	stream, err := cfg.Source(speedup)
	if err != nil {
		return p, err
	}
	defer stream.Close()

	bcfg := recoveryConfig()
	bcfg.TopK = 16 // bounds the site probes per job, the dominant cost on large grids
	sys := core.NewSystem(core.SystemConfig{
		Index:  core.IndexSpec{Latency: 500 * time.Millisecond},
		Seed:   cfg.Seed + idx,
		Trace:  cfg.Traced,
		Broker: bcfg,
		Sites: []core.SiteSpec{{
			NameFormat: "s%02d", Count: cfg.Sites, Nodes: cfg.NodesPerSite, LRMCycle: 5 * time.Second,
		}},
	})
	sim, b := sys.Sim, sys.Broker

	var (
		submitErr  error
		maxRuntime time.Duration
		drained    bool
		outcomes   tally
	)

	// Jobs in flight are pooled records: a description is only
	// referenced by its handle, and the handle is dropped once its Done
	// trigger has fired (state is terminal before the fire), so
	// recycling there is safe and keeps the million-job hot loop from
	// churning the heap. Each record binds its Done hook once, when it
	// is first made.
	type inFlight struct {
		jd   jdl.Job
		h    *broker.Handle
		done func()
	}
	var free []*inFlight
	newInFlight := func() *inFlight {
		if n := len(free); n > 0 {
			r := free[n-1]
			free = free[:n-1]
			r.jd = jdl.Job{}
			return r
		}
		r := new(inFlight)
		// done streams the job's terminal accounting: no retained
		// handle slice, no end-of-run scan, so memory stays constant
		// in trace length.
		r.done = func() {
			outcomes.add(r.h)
			r.h = nil
			free = append(free, r)
		}
		return r
	}

	// arrive submits one job and hooks its terminal accounting onto
	// the Done trigger.
	arrive := func(j workload.Job) {
		nodes := j.Nodes
		if nodes < 1 {
			nodes = 1
		}
		if nodes > cfg.NodesPerSite {
			nodes = cfg.NodesPerSite
			p.CappedWidths++
		}
		r := newInFlight()
		jd := &r.jd
		jd.NodeNumber = nodes
		if nodes > 1 {
			jd.Flavor = jdl.MPICHP4
		}
		if j.Kind == workload.InteractiveJob {
			p.Interactive++
			jd.Executable = "iapp"
			jd.Interactive = true
			jd.Access = jdl.SharedAccess
			jd.PerformanceLoss = j.PerformanceLoss
		} else {
			p.Batch++
			jd.Executable = "bapp"
		}
		if j.CPU > maxRuntime {
			maxRuntime = j.CPU
		}
		h, err := b.Submit(broker.Request{Job: jd, User: j.User, CPU: j.CPU})
		if err != nil {
			submitErr = err
			return
		}
		p.Submitted++
		r.h = h
		h.Done.OnFire(r.done)
	}

	// Arrival process: walk the replay stream on the virtual clock.
	// Zero-gap arrivals (simultaneous submits, common at high
	// speedups) are pumped in one batch instead of one timer event
	// each. At most one arrival timer is pending, so one continuation,
	// made once, submits the job it waited for (next) and pumps on.
	var pump func()
	var next workload.Job
	arriveNext := func() {
		arrive(next)
		pump()
	}
	pump = func() {
		for {
			j, delay, ok := stream.Next()
			if !ok {
				drained = true
				if err := stream.Err(); err != nil && submitErr == nil {
					submitErr = err
				}
				return
			}
			if delay == 0 {
				arrive(j)
				continue
			}
			next = j
			sim.AfterFunc(delay, arriveNext)
			return
		}
	}
	pump()

	// Run arrivals and completions in virtual-time chunks until every
	// submission is terminal (bounded: resubmission caps guarantee
	// progress, but a pathologically overloaded grid stops the clock
	// eventually).
	const chunk = 15 * time.Minute
	simStart := sim.Now()
	for waited := time.Duration(0); ; {
		if submitErr != nil {
			return p, submitErr
		}
		if drained {
			if outcomes.Done+outcomes.Failed >= p.Submitted {
				break
			}
			if waited >= maxRuntime+48*time.Hour {
				break
			}
			waited += chunk
		}
		sim.RunFor(chunk)
	}
	// A job still in flight never fired its hook, so the tally learns
	// of it here.
	outcomes.Pending = p.Submitted - outcomes.Done - outcomes.Failed
	p.Done, p.Failed, p.FailedBy, p.Pending = outcomes.Done, outcomes.Failed, outcomes.FailedBy, outcomes.Pending
	p.Resubmissions, p.SharedPlacements = outcomes.Resubmissions, outcomes.SharedPlacements
	sum := outcomes.summary()
	p.GoodputPct = sum.GoodputPct
	p.MeanStartupSec, p.P95StartupSec = sum.Startup.Mean, sum.Startup.P95
	p.MeanTurnaroundH, p.P95TurnaroundH = sum.Turnaround.Mean/3600, sum.Turnaround.P95/3600
	p.SimSeconds = sim.Now().Sub(simStart).Seconds()
	if p.SimSeconds > 0 {
		p.SimJobsPerSec = float64(p.Submitted) / p.SimSeconds
	}
	p.Trace = sys.Tracer.Snapshot(fmt.Sprintf("speedup=%g", speedup))
	return p, nil
}

// RenderReplay formats the sweep as a results table, followed by one
// line per point with failures that splits them by reason.
func RenderReplay(points []ReplayPoint) string {
	t := metrics.NewTable("Speedup", "Jobs", "Inter", "Batch", "Done", "Failed",
		"Goodput", "Startup mean/p95 (s)", "Turnaround mean/p95 (h)", "Shared", "Capped")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.Speedup),
			fmt.Sprintf("%d", p.Submitted),
			fmt.Sprintf("%d", p.Interactive),
			fmt.Sprintf("%d", p.Batch),
			fmt.Sprintf("%d", p.Done),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%.0f%%", p.GoodputPct),
			fmt.Sprintf("%.2f / %.2f", p.MeanStartupSec, p.P95StartupSec),
			fmt.Sprintf("%.2f / %.2f", p.MeanTurnaroundH, p.P95TurnaroundH),
			fmt.Sprintf("%d", p.SharedPlacements),
			fmt.Sprintf("%d", p.CappedWidths))
	}
	out := t.String()
	for _, p := range points {
		var reasons []string
		for r, n := range p.FailedBy {
			reasons = append(reasons, fmt.Sprintf("%s %d", r, n))
		}
		if len(reasons) > 0 {
			sort.Strings(reasons)
			out += fmt.Sprintf("failed at speedup %g: %s\n", p.Speedup, strings.Join(reasons, ", "))
		}
	}
	return out
}
