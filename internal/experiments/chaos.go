package experiments

import (
	"fmt"
	"strings"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/faultinject"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/trace"
)

// ChaosSweep measures the broker's failure recovery under the
// deterministic fault layer: a grid is loaded with batch and
// interactive work while faultinject drives site crashes, gatekeeper
// and LRM stalls, agent deaths, infosys partitions and network
// outages at increasing rates. Every point reports goodput, the
// resubmission traffic the faults caused, and the p99 recovery time
// (turnaround of the jobs that completed despite being hit). A fixed
// seed makes two runs byte-identical, the acceptance check for the
// fault layer itself.

// ChaosPoint is one failure-rate measurement.
type ChaosPoint struct {
	// CrashRate is the injected site-crash rate, per hour (the other
	// fault kinds are scaled proportionally).
	CrashRate float64 `json:"crash_rate_per_hour"`
	// Submitted, Done and Aborted count the workload's jobs; every
	// submitted job ends in exactly one of the two terminal states.
	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Aborted   int `json:"aborted"`
	// FailedBy splits Aborted by reason (Tally.FailedBy).
	FailedBy map[string]int `json:"failed_by,omitempty"`
	// Resubmissions is the total failure-driven resubmission count
	// across all jobs.
	Resubmissions int `json:"resubmissions"`
	// GoodputPct is Done/Submitted.
	GoodputPct float64 `json:"goodput_pct"`
	// P99RecoverySec is the p99 turnaround (seconds) of the jobs that
	// completed after at least one resubmission — how long recovery
	// takes at the tail. Zero when no job needed recovery.
	P99RecoverySec float64 `json:"p99_recovery_sec"`
	// MaxQuarantined is the largest number of simultaneously
	// quarantined sites observed (sampled once per simulated minute).
	MaxQuarantined int `json:"max_quarantined"`
	// Delta records that the cell's index kept delta logs, so its
	// broker matched by delta subscription.
	Delta bool `json:"delta,omitempty"`
	// Elastic records that half the cell's sites ran the elastic pool
	// backend.
	Elastic bool `json:"elastic,omitempty"`
	// LeakedLeases is the broker's leased-CPU count after the grid
	// drained — always zero when recovery is correct.
	LeakedLeases int `json:"leaked_leases"`
	// Injected counts the fault events actually applied.
	Injected int `json:"injected"`
	// Trace is the cell's full event log when ChaosConfig.Traced is
	// set, labeled "rate=<crash rate>". Excluded from JSON so
	// BENCH_chaos.json stays a compact summary; export it with
	// trace.WriteJSONL instead.
	Trace trace.Trace `json:"-"`
}

// ChaosConfig parametrizes the sweep.
type ChaosConfig struct {
	// Sites and NodesPerSite shape the grid (default 4x2).
	Sites, NodesPerSite int
	// Interactive and Batch are the submission counts per point
	// (default 6 each), arriving staggered.
	Interactive, Batch int
	// Rates are the site-crash rates per hour to sweep (default
	// 0, 0.5, 1, 2, 4).
	Rates []float64
	// MeanDowntime is the mean crash-to-restart window (default 5m).
	MeanDowntime time.Duration
	// Horizon is the fault-injection window; the grid then heals and
	// drains (default 4h).
	Horizon time.Duration
	// Seed drives both the fault schedule and broker randomization.
	Seed int64
	// Workers bounds concurrent points; 0 uses one per CPU.
	Workers int
	// Quick shrinks the sweep for CI smoke runs.
	Quick bool
	// Traced records every cell's event log (job lifecycle, 2PC,
	// leases, quarantine, injected faults) on the simulation clock and
	// attaches it to the cell's ChaosPoint. Each cell has its own
	// tracer and its own virtual clock, so the logs stay byte-stable
	// for a fixed seed even with concurrent workers.
	Traced bool
	// Delta gives the cell a sharded information index with per-shard
	// delta logs, which the broker reads by delta subscription instead
	// of discovery queries, and injects two explicit
	// InfosysPartition windows on top of the rate-driven schedule so
	// the partition→bounded-subscription→heal→catch-up path is
	// exercised at every rate, including rate 0.
	Delta bool
	// Elastic gives every odd-indexed site's queue an elastic node
	// supply (cold starts, warm-pool reuse, scale-down reclaim), so the
	// crash/stall/quarantine recovery machinery is exercised against
	// provisioning latencies: a crash landing during a cold boot must
	// still release its lease.
	Elastic bool
}

func (c *ChaosConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 2
	}
	if c.Interactive <= 0 {
		c.Interactive = 6
	}
	if c.Batch <= 0 {
		c.Batch = 6
	}
	if c.MeanDowntime <= 0 {
		c.MeanDowntime = 5 * time.Minute
	}
	if c.Horizon <= 0 {
		c.Horizon = 4 * time.Hour
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 0.5, 1, 2, 4}
	}
	if c.Quick {
		c.Rates = []float64{0, 2}
		c.Horizon = time.Hour
		c.Interactive, c.Batch = 3, 3
	}
}

// ChaosSweep runs one independent simulation per failure rate.
func ChaosSweep(cfg ChaosConfig) ([]ChaosPoint, error) {
	cfg.setDefaults()
	return runCells(len(cfg.Rates), cfg.Workers, func(i int) (ChaosPoint, error) {
		p, err := chaosPoint(cfg.Rates[i], int64(i), cfg)
		if err != nil {
			return p, fmt.Errorf("experiments: chaos rate %.2f/h: %w", cfg.Rates[i], err)
		}
		return p, nil
	})
}

func chaosPoint(rate float64, idx int64, cfg ChaosConfig) (ChaosPoint, error) {
	p := ChaosPoint{CrashRate: rate, Delta: cfg.Delta, Elastic: cfg.Elastic}
	// Recovery knobs: bounded resubmission with capped exponential
	// backoff; heartbeat monitoring and the circuit-breaker quarantine
	// run at the broker's defaults.
	grid := core.SystemConfig{
		Seed:   cfg.Seed + idx,
		Trace:  cfg.Traced,
		Broker: RecoveryConfig(),
		Sites: []core.SiteSpec{{
			NameFormat: "s%02d", Count: cfg.Sites, Nodes: cfg.NodesPerSite, LRMCycle: 2 * time.Second,
			Vary: func(i int, s *core.SiteSpec) {
				if cfg.Elastic && i%2 == 1 {
					s.Elastic = &batch.ElasticConfig{
						MaxNodes:        cfg.NodesPerSite,
						ColdStart:       45 * time.Second,
						ColdStartJitter: 15 * time.Second,
						WarmWindow:      5 * time.Minute,
						Seed:            cfg.Seed + idx + int64(i),
					}
				}
			},
		}},
	}
	if cfg.Delta {
		grid.Index = core.IndexSpec{Shards: 4, DeltaLogDepth: 64}
	}
	sys := core.NewSystem(grid)
	sim, b := sys.Sim, sys.Broker

	// The fault layer: site crashes drive the sweep axis; the other
	// kinds are scaled off the same rate so every recovery path is
	// exercised together.
	inj := sys.NewFaultInjector(cfg.Seed + idx)
	sched := faultinject.Schedule{
		Seed:    cfg.Seed + idx,
		Horizon: cfg.Horizon,
		Rates: faultinject.Rates{
			SiteCrashesPerHour: rate, MeanDowntime: cfg.MeanDowntime,
			GKStallsPerHour: rate, MeanGKStall: 30 * time.Second,
			LRMStallsPerHour: rate / 2, MeanLRMStall: time.Minute,
			AgentDeathsPerHour: rate,
			PartitionsPerHour:  rate / 4, MeanPartition: 2 * time.Minute,
			OutagesPerHour: rate / 2, MeanOutage: time.Minute,
		},
	}
	if cfg.Delta {
		// Two guaranteed partition windows, so every delta cell — rate
		// 0 included — exercises bounded subscriptions during the cut
		// and the delta/re-pin catch-up after the heal. checktrace's
		// freshness invariant then proves no post-heal match used a
		// stale epoch.
		sched.Events = append(sched.Events,
			faultinject.Event{At: 20 * time.Minute, Kind: faultinject.InfosysPartition, Duration: 5 * time.Minute},
			faultinject.Event{At: 40 * time.Minute, Kind: faultinject.InfosysPartition, Duration: 10 * time.Minute},
		)
	}
	inj.Start(sched)

	// Quarantine sampler: record the high-water mark of simultaneously
	// quarantined sites, once per simulated minute.
	start := sim.Now()
	var tick func()
	tick = func() {
		if sim.Since(start) >= cfg.Horizon+2*time.Hour {
			return
		}
		if n := len(b.QuarantinedSites()); n > p.MaxQuarantined {
			p.MaxQuarantined = n
		}
		sim.AfterFunc(time.Minute, tick)
	}
	sim.Post(tick)

	// The workload: batch jobs staggered in, then interactive jobs
	// alternating shared and exclusive access.
	var handles []*broker.Handle
	for i := 0; i < cfg.Batch; i++ {
		h, err := b.Submit(broker.Request{
			Job:  &jdl.Job{Executable: "batch", NodeNumber: 1},
			User: fmt.Sprintf("batch%02d", i),
			CPU:  30 * time.Minute,
		})
		if err != nil {
			return p, err
		}
		handles = append(handles, h)
		sim.RunFor(time.Minute)
	}
	for i := 0; i < cfg.Interactive; i++ {
		access, pl := jdl.ExclusiveAccess, 0
		if i%2 == 1 {
			access, pl = jdl.SharedAccess, 10
		}
		h, err := b.Submit(broker.Request{
			Job: &jdl.Job{Executable: "inter", Interactive: true, NodeNumber: 1,
				Access: access, PerformanceLoss: pl},
			User: fmt.Sprintf("user%02d", i),
			CPU:  5 * time.Minute,
		})
		if err != nil {
			return p, err
		}
		handles = append(handles, h)
		sim.RunFor(2 * time.Minute)
	}

	// Ride out the fault window, then drain: the schedule stops at the
	// horizon, crashed sites restart, and every surviving retry either
	// completes or hits its resubmission cap.
	sim.RunFor(cfg.Horizon)
	core.Drain(sys, handles, 15*time.Minute, 8)

	tally := tallyOf(handles)
	if err := tally.pendingErr(); err != nil {
		return p, err
	}
	sum := tally.Summary()
	p.Submitted, p.Done, p.Aborted, p.FailedBy = len(handles), tally.Done, tally.Failed, tally.FailedBy
	p.Resubmissions, p.GoodputPct, p.P99RecoverySec = tally.Resubmissions, sum.GoodputPct, sum.Recovery.P99
	p.LeakedLeases = b.LeasedCPUs()
	p.Trace = sys.Tracer.Snapshot(fmt.Sprintf("rate=%g", rate))
	for _, line := range inj.Applied() {
		if strings.HasSuffix(line, " injected") {
			p.Injected++
		}
	}
	return p, nil
}

// RenderChaos formats the sweep as a results table.
func RenderChaos(points []ChaosPoint) string {
	t := metrics.NewTable("Crashes/h", "Jobs", "Done", "Aborted", "Goodput",
		"Resubmits", "p99 recovery (s)", "Max quarantined", "Leaked leases", "Faults")
	for _, p := range points {
		rec := "-"
		if p.P99RecoverySec > 0 {
			rec = fmt.Sprintf("%.1f", p.P99RecoverySec)
		}
		t.AddRow(fmt.Sprintf("%.2g", p.CrashRate),
			fmt.Sprintf("%d", p.Submitted),
			fmt.Sprintf("%d", p.Done),
			fmt.Sprintf("%d", p.Aborted),
			fmt.Sprintf("%.0f%%", p.GoodputPct),
			fmt.Sprintf("%d", p.Resubmissions),
			rec,
			fmt.Sprintf("%d", p.MaxQuarantined),
			fmt.Sprintf("%d", p.LeakedLeases),
			fmt.Sprintf("%d", p.Injected))
	}
	return t.String()
}
