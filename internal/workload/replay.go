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

// Recorded traces predate the interactive-job JDL extension, so replay
// tags short, narrow jobs as interactive sessions (the paper's
// application classes) and everything else as batch production work:
// a job is interactive when it runs at most interactiveMaxRuntime on at
// most interactiveMaxNodes nodes, and then accepts a PerformanceLoss of
// interactivePL.
const (
	interactiveMaxRuntime = 10 * time.Minute
	interactiveMaxNodes   = 4
	interactivePL         = 10
)

// interactive reports whether replay classifies the job as an
// interactive session.
func interactive(j TraceJob) bool {
	return j.Nodes <= interactiveMaxNodes && j.Runtime <= interactiveMaxRuntime
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
}

func (c *ReplayConfig) setDefaults() {
	if c.Speedup == 0 {
		c.Speedup = 1
	}
}

// scaleGap divides one inter-arrival gap by the speedup factor. It is
// exported so property tests (and experiment code) apply the exact
// arithmetic the stream uses.
func scaleGap(gap time.Duration, speedup float64) time.Duration {
	if speedup == 1 {
		return gap
	}
	v := float64(gap) / speedup
	if v >= math.MaxInt64 { // slowdown overflow: saturate
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
}
