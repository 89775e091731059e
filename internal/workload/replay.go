package workload

import (
	"math"
	"strconv"
	"time"
)

// This file holds what trace replay means, independent of how records
// are read: recorded grid workloads (SWF from the Parallel Workloads
// Archive, GWF from the Grid Workloads Archive) are normalized into
// TraceJobs, classified as interactive or batch, windowed and
// speed-scaled into a stream of the same Jobs the synthetic generators
// produce. stream.go reads the archives. Real logs exercise
// broker behavior the synthetic mixes never produce — heavy-tailed
// runtimes, daily arrival waves, correlated bursts — so the day
// experiment can run against published traces.

// TraceJob is one normalized job drawn from a parsed trace.
type TraceJob struct {
	// ID is the trace's job number.
	ID int64
	// Submit is the submission offset from the trace start.
	Submit time.Duration
	// Runtime is the recorded (or, failing that, requested) wall-clock
	// runtime.
	Runtime time.Duration
	// Nodes is the recorded (or requested) processor count, >= 1.
	Nodes int
	// User is a synthetic DN derived from the trace's user ID.
	User string
}

// traceUser renders a trace user ID as the DN-style identity the rest
// of the stack expects.
func traceUser(id int64) string {
	if id < 0 {
		return "/O=Trace/CN=unknown"
	}
	return "/O=Trace/CN=user" + strconv.FormatInt(id, 10)
}

// normalizeFields converts one record's raw fields, dropping records
// that carry neither a runtime nor a requested time, or no submit
// time. It leaves User empty, so the reader can intern user identities
// instead of allocating one per record.
func normalizeFields(id, submit, runtime, reqTime, procs, reqProcs int64) (TraceJob, bool) {
	if submit < 0 {
		return TraceJob{}, false
	}
	rt := runtime
	if rt < 0 {
		rt = reqTime
	}
	if rt < 0 {
		return TraceJob{}, false
	}
	n := procs
	if n < 1 {
		n = reqProcs
	}
	if n < 1 {
		n = 1
	}
	return TraceJob{
		ID:      id,
		Submit:  time.Duration(submit) * time.Second,
		Runtime: time.Duration(rt) * time.Second,
		Nodes:   int(n),
	}, true
}

// ClassifyRule is the interactive/batch heuristic applied to trace
// jobs: recorded traces predate the interactive-job JDL extension, so
// replay tags short, narrow jobs as interactive sessions (the paper's
// application classes) and everything else as batch production work.
type ClassifyRule struct {
	// MaxRuntime is the longest runtime still considered interactive
	// (default 10m).
	MaxRuntime time.Duration
	// MaxNodes is the widest job still considered interactive
	// (default 4).
	MaxNodes int
	// Startup is the grid's advertised worst-case node startup cost
	// (the largest batch.BackendInfo.Startup among the sites the
	// replay feeds — an elastic pool's cold-start bound). A job only
	// counts as interactive when its runtime dominates that cost:
	// classifying a 2-minute job as interactive in front of a
	// 10-minute cold start buys queue-jumping for a session that
	// spends most of its life waiting on provisioning. The interactive
	// runtime ceiling is therefore max(MaxRuntime, 2×Startup). Zero —
	// always-provisioned backends — keeps the classic rule.
	Startup time.Duration
}

func (r *ClassifyRule) setDefaults() {
	if r.MaxRuntime <= 0 {
		r.MaxRuntime = 10 * time.Minute
	}
	if r.MaxNodes <= 0 {
		r.MaxNodes = 4
	}
}

// Interactive reports whether the rule classifies the job as an
// interactive session.
func (r ClassifyRule) Interactive(j TraceJob) bool {
	r.setDefaults()
	if j.Nodes > r.MaxNodes {
		return false
	}
	ceil := r.MaxRuntime
	if backendCeil := 2 * r.Startup; backendCeil > ceil {
		// Backend-aware ceiling: routed as batch on a slow-provisioning
		// backend, any job up to twice the startup cost pays a cold
		// start that rivals its own runtime — so such jobs keep the
		// interactive classification (whose on-line scheduling kills a
		// queued attempt and reroutes instead of waiting out the boot),
		// even past the wall-clock MaxRuntime.
		ceil = backendCeil
	}
	return j.Runtime <= ceil
}

// ReplayConfig parametrizes a StreamReplay.
type ReplayConfig struct {
	// StartHour and EndHour slice the trace window [StartHour,
	// EndHour) in hours of trace time; EndHour <= 0 means "to the
	// end". Arrivals are rebased to the window start.
	StartHour, EndHour float64
	// Speedup compresses arrivals: every inter-arrival gap is divided
	// by Speedup on the simulation clock (runtimes are untouched, so
	// Speedup > 1 intensifies load). 0 means 1.
	Speedup float64
	// Rule classifies jobs as interactive or batch.
	Rule ClassifyRule
	// PerformanceLoss is assigned to interactive jobs (default 10).
	PerformanceLoss int
}

func (c *ReplayConfig) setDefaults() {
	if c.Speedup == 0 {
		c.Speedup = 1
	}
	if c.PerformanceLoss == 0 {
		c.PerformanceLoss = 10
	}
	c.Rule.setDefaults()
}

// ScaleGap divides one inter-arrival gap by the speedup factor. It is
// exported so property tests (and experiment code) apply the exact
// arithmetic the stream uses.
func ScaleGap(gap time.Duration, speedup float64) time.Duration {
	if speedup == 1 {
		return gap
	}
	v := float64(gap) / speedup
	if v >= math.MaxInt64 { // slowdown overflow: saturate
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
}
