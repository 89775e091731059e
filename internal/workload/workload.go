// Package workload generates synthetic job streams for grid
// experiments: seeded arrival processes and job mixes approximating
// the CrossGrid testbed's usage (long batch production jobs with
// bursts of short interactive sessions, Section 1's application
// classes).
//
// All generators are deterministic given their seed, so experiments
// built on them are reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Poisson is a Poisson arrival process (exponential inter-arrivals).
type Poisson struct {
	rng  *rand.Rand
	mean time.Duration
}

// NewPoisson creates a process with the given arrival rate in events
// per hour. A rate that is zero, negative or non-finite is an error:
// the old silent clamp to one event per hour hid misconfigured
// experiments behind a plausible-looking trickle of arrivals.
func NewPoisson(perHour float64, seed int64) (*Poisson, error) {
	if perHour <= 0 || math.IsNaN(perHour) || math.IsInf(perHour, 0) {
		return nil, fmt.Errorf("workload: arrival rate %v/h (want a positive finite rate)", perHour)
	}
	return &Poisson{
		rng:  rand.New(rand.NewSource(seed)),
		mean: time.Duration(float64(time.Hour) / perHour),
	}, nil
}

// Next draws an exponential inter-arrival time.
func (p *Poisson) Next() time.Duration {
	return time.Duration(p.rng.ExpFloat64() * float64(p.mean))
}

// LogNormal samples durations whose logarithm is normally distributed
// — the classic heavy-tailed job-runtime model.
type LogNormal struct {
	rng    *rand.Rand
	mu     float64 // of ln(seconds)
	sigma  float64
	maxCap time.Duration
}

// NewLogNormal builds a log-normal duration source with the given
// median and shape (sigma of the underlying normal; ~0.5 mild, ~1.5
// heavy tail). Samples are capped at 50x the median to keep
// simulations bounded.
func NewLogNormal(median time.Duration, sigma float64, seed int64) *LogNormal {
	if median <= 0 {
		median = time.Minute
	}
	if sigma <= 0 {
		sigma = 1
	}
	return &LogNormal{
		rng:    rand.New(rand.NewSource(seed)),
		mu:     math.Log(median.Seconds()),
		sigma:  sigma,
		maxCap: 50 * median,
	}
}

// Sample draws one duration.
func (l *LogNormal) Sample() time.Duration {
	secs := math.Exp(l.mu + l.sigma*l.rng.NormFloat64())
	d := time.Duration(secs * float64(time.Second))
	if d > l.maxCap {
		d = l.maxCap
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// JobKind labels a generated job.
type JobKind int

// Generated job kinds.
const (
	BatchJob JobKind = iota
	InteractiveJob
)

// Job is one generated submission.
type Job struct {
	// Kind is batch or interactive.
	Kind JobKind
	// User is a synthetic owner drawn from the configured population.
	User string
	// CPU is the per-node CPU demand.
	CPU time.Duration
	// PerformanceLoss applies to interactive jobs.
	PerformanceLoss int
	// Nodes is the job's width; 0 means 1 (synthetic generators emit
	// single-node jobs, trace replays carry the recorded width).
	Nodes int
	// TraceID is the originating trace record's job number for
	// replayed jobs, 0 for synthetic ones.
	TraceID int64
}

// Mix generates a stream of jobs.
type Mix struct {
	rng *rand.Rand
	// batchCPU and interactiveCPU sample per-kind demands.
	batchCPU, interactiveCPU *LogNormal
}

// The mix's CrossGrid-flavored shape: the probability a job is
// interactive, the size of the synthetic user population, and the
// performance losses an interactive job draws from.
const (
	mixInteractiveFraction = 0.3
	mixUsers               = 16
)

var mixPerformanceLosses = [...]int{5, 10, 25}

// NewMix builds a generator with CrossGrid-flavored defaults: 30%
// interactive, 16 users, multi-hour heavy-tailed batch jobs, short
// interactive sessions, PL drawn from {5,10,25}.
func NewMix(seed int64) *Mix {
	return &Mix{
		rng:            rand.New(rand.NewSource(seed)),
		batchCPU:       NewLogNormal(2*time.Hour, 0.8, seed+1),
		interactiveCPU: NewLogNormal(2*time.Minute, 0.7, seed+2),
	}
}

// Next generates one job.
func (m *Mix) Next() Job {
	j := Job{}
	if m.rng.Float64() < mixInteractiveFraction {
		j.Kind = InteractiveJob
		j.CPU = m.interactiveCPU.Sample()
		j.PerformanceLoss = mixPerformanceLosses[m.rng.Intn(len(mixPerformanceLosses))]
	} else {
		j.Kind = BatchJob
		j.CPU = m.batchCPU.Sample()
	}
	j.User = userName(m.rng.Intn(mixUsers))
	return j
}

func userName(i int) string {
	return "/O=CrossGrid/CN=user" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
