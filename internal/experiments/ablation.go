package experiments

import (
	"fmt"
	"io"
	"time"

	"crossbroker/internal/baseline"
	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
)

// BlockSizeSweep quantifies the paper's explanation for why the
// reliable mode beats ssh at 10 KB — "our method uses larger internal
// buffers, therefore the disk overhead is compensated by a smaller
// number of IO operations" — by measuring the 10 KB round trip of an
// ssh-like channel across packetization block sizes.
func BlockSizeSweep(profile netsim.Profile, blockSizes []int, rounds int) (map[int]metrics.Summary, error) {
	if len(blockSizes) == 0 {
		blockSizes = []int{256, 512, 1024, 4096, 16384}
	}
	if rounds <= 0 {
		rounds = 100
	}
	const payload = 10 * 1024
	out := make(map[int]metrics.Summary)
	for _, bs := range blockSizes {
		nw := netsim.New(profile, int64(bs))
		ch, err := baseline.NewCustom(nw, "sweep", baseline.Config{
			BlockSize: bs,
			PerBlock:  40 * time.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		go echoLoop(ch.Server())
		series := metrics.NewSeries(fmt.Sprintf("block%d", bs))
		msg := makeMessage(payload)
		buf := make([]byte, payload)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if _, err := ch.Client().Write(msg); err != nil {
				ch.Close()
				return nil, err
			}
			if _, err := io.ReadFull(ch.Client(), buf); err != nil {
				ch.Close()
				return nil, err
			}
			series.AddDuration(time.Since(start))
		}
		ch.Close()
		out[bs] = series.Summarize()
	}
	return out, nil
}

// LeaseSweepResult reports contention outcomes for one lease duration.
type LeaseSweepResult struct {
	Lease     time.Duration
	Succeeded int
	Failed    int
	// Resubmissions counts on-line-scheduling retries across all jobs —
	// the cost of handing one machine to two matchmaking passes.
	Resubmissions int
}

// LeaseSweep measures the exclusive-temporal-access mechanism: a burst
// of concurrent interactive submissions against a small grid, across
// lease durations. Longer leases prevent double allocation (fewer
// resubmissions) at the cost of conservative matching. Each lease
// duration is an independent simulation, run as a parallel cell.
func LeaseSweep(leases []time.Duration, jobs, sitesN int, seed int64) ([]LeaseSweepResult, error) {
	if len(leases) == 0 {
		leases = []time.Duration{0, time.Second, 10 * time.Second, time.Minute}
	}
	return runCells(len(leases), 0, func(i int) (LeaseSweepResult, error) {
		lease := leases[i]
		cfg := broker.Config{QueueTimeout: 5 * time.Second, LeaseDuration: lease}
		if lease <= 0 {
			cfg.LeaseDuration = time.Nanosecond // effectively no lease
		}
		sys := core.NewSystem(core.SystemConfig{
			Seed:   seed,
			Broker: cfg,
			Sites: []core.SiteSpec{{
				NameFormat: "s%02d", Count: sitesN, Nodes: 1, LRMCycle: 2 * time.Second,
			}},
		})
		sim, b := sys.Sim, sys.Broker
		// Stagger submissions by half a second: a later job's
		// matchmaking runs inside the window where an earlier job has
		// been matched but has not yet reached its site's LRM — the
		// exact race the lease mechanism exists to close.
		var handles []*broker.Handle
		var submitErr error
		for j := 0; j < jobs; j++ {
			j := j
			sim.AfterFunc(time.Duration(j)*500*time.Millisecond, func() {
				h, err := b.Submit(broker.Request{
					Job: &jdl.Job{Executable: "i", Interactive: true, NodeNumber: 1,
						Access: jdl.ExclusiveAccess},
					User: fmt.Sprintf("u%d", j),
					CPU:  time.Second,
				})
				if err != nil {
					submitErr = err
					return
				}
				handles = append(handles, h)
			})
		}
		sim.RunFor(time.Hour)
		if submitErr != nil {
			return LeaseSweepResult{}, submitErr
		}
		tally := tallyOf(handles)
		if err := tally.pendingErr(); err != nil {
			return LeaseSweepResult{}, err
		}
		return LeaseSweepResult{Lease: lease, Succeeded: tally.Done, Failed: tally.Failed,
			Resubmissions: tally.Resubmissions}, nil
	})
}

// SelectionPolicyResult compares randomized vs deterministic
// tie-breaking under a burst of equal-rank choices.
type SelectionPolicyResult struct {
	Policy        string
	DistinctSites int
	Resubmissions int
}

// SelectionPolicy measures why the broker randomizes selection among
// equally ranked resources: with a deterministic order, a burst of
// concurrent submissions all pile onto the same site.
func SelectionPolicy(jobs, sitesN int) ([]SelectionPolicyResult, error) {
	run := func(randomized bool) (SelectionPolicyResult, error) {
		name := "deterministic"
		if randomized {
			name = "randomized"
		}
		spec := core.SystemConfig{
			Broker: broker.Config{QueueTimeout: 5 * time.Second, LeaseDuration: time.Nanosecond,
				Deterministic: !randomized},
			Sites: []core.SiteSpec{{
				NameFormat: "s%02d", Count: sitesN, Nodes: 2, LRMCycle: 2 * time.Second,
			}},
		}
		if randomized {
			spec.Seed = 42
		}
		sys := core.NewSystem(spec)
		sim, b := sys.Sim, sys.Broker
		var handles []*broker.Handle
		for j := 0; j < jobs; j++ {
			h, err := b.Submit(broker.Request{
				Job: &jdl.Job{Executable: "i", Interactive: true, NodeNumber: 1,
					Access: jdl.ExclusiveAccess},
				User: fmt.Sprintf("u%d", j),
				CPU:  time.Minute,
			})
			if err != nil {
				return SelectionPolicyResult{}, err
			}
			handles = append(handles, h)
		}
		sim.RunFor(2 * time.Hour)
		seen := map[string]bool{}
		for _, h := range handles {
			if h.State() == broker.Done {
				seen[h.Site()] = true
			}
		}
		return SelectionPolicyResult{Policy: name, DistinctSites: len(seen),
			Resubmissions: tallyOf(handles).Resubmissions}, nil
	}
	return runCells(2, 0, func(i int) (SelectionPolicyResult, error) {
		return run(i == 1)
	})
}

// QuantumSweepResult reports stride-scheduler division accuracy for
// one quantum.
type QuantumSweepResult struct {
	Quantum time.Duration
	// MeasuredLoss is the CPU-burst slowdown measured at PL=25.
	MeasuredLoss float64
}

// QuantumSweep measures how the scheduling quantum affects how closely
// the measured CPU division tracks the PerformanceLoss attribute
// (Figure 8's "highly accurate control" claim).
func QuantumSweep(quanta []time.Duration, iterations int) ([]QuantumSweepResult, error) {
	if len(quanta) == 0 {
		quanta = []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	}
	if iterations <= 0 {
		iterations = 50
	}
	return runCells(len(quanta), 0, func(i int) (QuantumSweepResult, error) {
		q := quanta[i]
		ref, err := fig8Exclusive(Fig8Config{Iterations: iterations, quantum: q})
		if err != nil {
			return QuantumSweepResult{}, err
		}
		shared, err := fig8Shared(Fig8Config{Iterations: iterations, quantum: q}, 25)
		if err != nil {
			return QuantumSweepResult{}, err
		}
		return QuantumSweepResult{
			Quantum:      q,
			MeasuredLoss: shared.CPU.Summarize().Mean/ref.CPU.Summarize().Mean - 1,
		}, nil
	})
}

// DegreeSweepResult reports interactive interference at one
// multiprogramming degree.
type DegreeSweepResult struct {
	// Degree is the number of interactive VMs per node.
	Degree int
	// Placed is how many of the submitted interactive jobs the single
	// node could host.
	Placed int
	// MeanBurst is the mean elapsed time of a 1 s CPU burst per
	// hosted job.
	MeanBurst float64
}

// DegreeSweep studies the paper's proposed extension of "a larger
// degree of multi-programming": one worker node, `jobs` concurrent
// interactive jobs, across multiprogramming degrees. Higher degrees
// admit more jobs but each job's CPU burst dilates with the number of
// co-resident interactive VMs — the capacity/latency trade-off the
// paper flags as future research.
func DegreeSweep(degrees []int, jobs int) ([]DegreeSweepResult, error) {
	if len(degrees) == 0 {
		degrees = []int{1, 2, 4}
	}
	if jobs <= 0 {
		jobs = 4
	}
	return runCells(len(degrees), 0, func(i int) (DegreeSweepResult, error) {
		degree := degrees[i]
		sys := core.NewSystem(core.SystemConfig{
			Index:  core.IndexSpec{Latency: 100 * time.Millisecond},
			Broker: broker.Config{AgentDegree: degree},
			Sites:  []core.SiteSpec{{Name: "node", Nodes: 1, LRMCycle: time.Second}},
		})
		sim, b := sys.Sim, sys.Broker

		burst := metrics.NewSeries("burst")
		var handles []*broker.Handle
		var submitErr error
		// Stagger arrivals so each submission sees the agent created by
		// the first; the long CPU bursts overlap across jobs.
		for j := 0; j < jobs; j++ {
			j := j
			sim.AfterFunc(time.Duration(j)*30*time.Second, func() {
				h, err := b.Submit(broker.Request{
					Job: &jdl.Job{Executable: "i", Interactive: true, NodeNumber: 1,
						Access: jdl.SharedAccess, PerformanceLoss: 10},
					User: fmt.Sprintf("u%d", j),
					Body: func(rc *broker.RunContext, done func()) {
						rc.Output(64, func() {
							t0 := rc.Sim.Now()
							rc.Slots[0].Start(10 * time.Minute).WaitThen(func() {
								burst.AddDuration(rc.Sim.Since(t0))
								done()
							})
						})
					},
				})
				if err != nil {
					submitErr = err
					return
				}
				handles = append(handles, h)
			})
		}
		sim.RunFor(12 * time.Hour)
		if submitErr != nil {
			return DegreeSweepResult{}, submitErr
		}
		return DegreeSweepResult{Degree: degree, Placed: tallyOf(handles).Done,
			MeanBurst: burst.Summarize().Mean}, nil
	})
}

// FairShareUser is one user's final state in the fair-share scenario.
type FairShareUser struct {
	Name     string
	Priority float64
}

// FairShareScenario exercises the Section 5.1 priority dynamics: an
// interactive user, a plain batch user, and a batch user whose job
// yields its machine to an interactive application (PerformanceLoss
// 10), all holding equal resources for `ticks` update intervals. It
// returns the resulting priorities (higher = worse); the paper's
// ordering is interactive > batch > yielded.
func FairShareScenario(ticks int) []FairShareUser {
	m := fairshare.New(simclock.NewSim(time.Time{}), fairshare.Config{
		HalfLife: time.Hour, UpdateInterval: time.Minute,
	})
	m.SetTotal(15)
	m.Allocate("ji", "interactive-user", 5, fairshare.InteractiveClass, 10)
	m.Allocate("jb", "batch-user", 5, fairshare.BatchClass, 0)
	m.Allocate("jy", "yielded-user", 5, fairshare.YieldedBatchClass, 10)
	for i := 0; i < ticks; i++ {
		m.Tick()
	}
	return []FairShareUser{
		{"interactive-user", m.Priority("interactive-user")},
		{"batch-user", m.Priority("batch-user")},
		{"yielded-user", m.Priority("yielded-user")},
	}
}
