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
	// InteractiveFraction is the probability a job is interactive.
	InteractiveFraction float64
	// Users is the size of the synthetic user population.
	Users int
	// BatchCPU and InteractiveCPU sample per-kind demands.
	BatchCPU, InteractiveCPU *LogNormal
	// PerformanceLosses to draw from for interactive jobs.
	PerformanceLosses []int
}

// NewMix builds a generator with CrossGrid-flavored defaults: 30%
// interactive, 16 users, multi-hour heavy-tailed batch jobs, short
// interactive sessions, PL drawn from {5,10,25}.
func NewMix(seed int64) *Mix {
	return &Mix{
		rng:                 rand.New(rand.NewSource(seed)),
		InteractiveFraction: 0.3,
		Users:               16,
		BatchCPU:            NewLogNormal(2*time.Hour, 0.8, seed+1),
		InteractiveCPU:      NewLogNormal(2*time.Minute, 0.7, seed+2),
		PerformanceLosses:   []int{5, 10, 25},
	}
}

// Next generates one job.
func (m *Mix) Next() Job {
	j := Job{}
	if m.rng.Float64() < m.InteractiveFraction {
		j.Kind = InteractiveJob
		j.CPU = m.InteractiveCPU.Sample()
		if len(m.PerformanceLosses) > 0 {
			j.PerformanceLoss = m.PerformanceLosses[m.rng.Intn(len(m.PerformanceLosses))]
		}
	} else {
		j.Kind = BatchJob
		j.CPU = m.BatchCPU.Sample()
	}
	users := m.Users
	if users <= 0 {
		users = 1
	}
	j.User = userName(m.rng.Intn(users))
	return j
}

func userName(i int) string {
	return "/O=CrossGrid/CN=user" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
