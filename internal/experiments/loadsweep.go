package experiments

import (
	"fmt"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
)

// LoadSweep quantifies the paper's central motivation (Sections 1 and
// 5.2): on a batch-oriented grid, interactive work is locked out as
// occupancy rises, while the multi-programming mechanism keeps
// interactive jobs starting immediately — at a bounded, user-chosen
// cost to the batch jobs ("The agent-based mechanism improves resource
// availability for interactive jobs that will even be able to run
// under the circumstances of high Grid-resource occupancy. On the
// other hand, this has little impact on batch jobs").

// LoadPoint is one (occupancy, policy) measurement.
type LoadPoint struct {
	// BatchLoad is the fraction of grid CPUs occupied by batch jobs.
	BatchLoad float64
	// Multiprogramming selects shared-mode placement (true) or
	// exclusive-only (false, a conventional broker).
	Multiprogramming bool
	// Submitted, Succeeded and Failed count the interactive jobs.
	Submitted, Succeeded, Failed int
	// MeanStartup is the mean submission-to-first-output time of the
	// successful interactive jobs, in seconds.
	MeanStartup float64
	// BatchSlowdownPct is the mean inflation of the batch jobs'
	// completion time relative to the exclusive-only run at the same
	// load, where no interactive job shares their nodes (0 when
	// nothing shared, or at load 0).
	BatchSlowdownPct float64

	meanBatchElapsed float64
}

// LoadSweepConfig parametrizes the experiment.
type LoadSweepConfig struct {
	// Sites and NodesPerSite shape the grid (default 4x4).
	Sites, NodesPerSite int
	// Interactive is the number of interactive submissions per point
	// (default 8), arriving 30 simulated seconds apart.
	Interactive int
	// PerformanceLoss is the shared-mode attribute (default 10).
	PerformanceLoss int
	// BatchWork is each batch job's CPU demand (default 2h).
	BatchWork time.Duration
	// Seed drives randomized selection.
	Seed int64
	// Workers bounds how many (load, policy) points are simulated
	// concurrently; 0 uses one per CPU.
	Workers int
}

func (c *LoadSweepConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 4
	}
	if c.Interactive <= 0 {
		c.Interactive = 8
	}
	if c.PerformanceLoss <= 0 {
		c.PerformanceLoss = 10
	}
	if c.BatchWork <= 0 {
		c.BatchWork = 2 * time.Hour
	}
}

// LoadSweep measures each load level under both policies. The
// (load, policy) points are independent simulations, run as parallel
// cells; the batch-slowdown pairing happens after the deterministic
// merge.
func LoadSweep(loads []float64, cfg LoadSweepConfig) ([]LoadPoint, error) {
	cfg.setDefaults()
	if len(loads) == 0 {
		loads = []float64{0, 0.5, 1.0}
	}
	out, err := runCells(2*len(loads), cfg.Workers, func(i int) (LoadPoint, error) {
		load, mp := loads[i/2], i%2 == 1
		p, err := loadPoint(load, mp, cfg)
		if err != nil {
			policy := "exclusive"
			if mp {
				policy = "multiprogramming"
			}
			return p, fmt.Errorf("experiments: load %.2f %s: %w", load, policy, err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	// Batch slowdown: multiprogramming elapsed vs exclusive-only
	// elapsed at the same load.
	for i := 0; i+1 < len(out); i += 2 {
		if excl := out[i]; excl.meanBatchElapsed > 0 {
			out[i+1].BatchSlowdownPct = (out[i+1].meanBatchElapsed/excl.meanBatchElapsed - 1) * 100
		}
	}
	return out, nil
}

func loadPoint(load float64, mp bool, cfg LoadSweepConfig) (LoadPoint, error) {
	p := LoadPoint{BatchLoad: load, Multiprogramming: mp}
	sys := core.NewSystem(core.SystemConfig{
		Seed: cfg.Seed,
		Sites: []core.SiteSpec{{
			NameFormat: "s%02d", Count: cfg.Sites, Nodes: cfg.NodesPerSite, LRMCycle: 2 * time.Second,
		}},
	})
	sim, b := sys.Sim, sys.Broker

	// Occupy the grid with batch jobs (each holds one node via its
	// agent), staggered so matchmaking sees prior placements. Each
	// job's completion time is captured for the slowdown comparison.
	totalCPUs := cfg.Sites * cfg.NodesPerSite
	nBatch := int(load*float64(totalCPUs) + 0.5)
	var batchHandles []*broker.Handle
	for i := 0; i < nBatch; i++ {
		h, err := b.Submit(broker.Request{
			Job:  &jdl.Job{Executable: "batch", NodeNumber: 1},
			User: fmt.Sprintf("batch%02d", i),
			CPU:  cfg.BatchWork,
		})
		if err != nil {
			return p, err
		}
		batchHandles = append(batchHandles, h)
		sim.RunFor(45 * time.Second)
	}
	sim.RunFor(5 * time.Minute)

	// Interactive arrivals, 30 s apart.
	access := jdl.ExclusiveAccess
	if mp {
		access = jdl.SharedAccess
	}
	var inter []*broker.Handle
	for i := 0; i < cfg.Interactive; i++ {
		h, err := b.Submit(broker.Request{
			Job: &jdl.Job{Executable: "inter", Interactive: true, NodeNumber: 1,
				Access: access, PerformanceLoss: pickPL(mp, cfg)},
			User: fmt.Sprintf("user%02d", i),
			CPU:  30 * time.Second,
		})
		if err != nil {
			return p, err
		}
		inter = append(inter, h)
		sim.RunFor(30 * time.Second)
	}
	sim.RunFor(30 * time.Minute)

	interTally := tallyOf(inter)
	if err := interTally.pendingErr(); err != nil {
		return p, err
	}
	p.Submitted, p.Succeeded, p.Failed = len(inter), interTally.Done, interTally.Failed
	p.MeanStartup = interTally.Summary().Startup.Mean

	// Run the grid until the batch jobs finish; their mean turnaround
	// feeds the slowdown comparison against the exclusive-only run at
	// the same load (where nothing shares their nodes).
	sim.RunFor(cfg.BatchWork * 3)
	p.meanBatchElapsed = tallyOf(batchHandles).Summary().Turnaround.Mean
	return p, nil
}

func pickPL(mp bool, cfg LoadSweepConfig) int {
	if mp {
		return cfg.PerformanceLoss
	}
	return 0
}

// RenderLoadSweep formats the sweep like a results table.
func RenderLoadSweep(points []LoadPoint) string {
	t := metrics.NewTable("Batch load", "Policy", "Interactive OK", "Failed",
		"Mean startup (s)", "Batch slowdown")
	for _, p := range points {
		policy := "exclusive-only"
		if p.Multiprogramming {
			policy = "multiprogramming"
		}
		startup := "-"
		if p.Succeeded > 0 {
			startup = fmt.Sprintf("%.2f", p.MeanStartup)
		}
		slow := "-"
		if p.Multiprogramming {
			slow = fmt.Sprintf("%+.1f%%", p.BatchSlowdownPct)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", p.BatchLoad*100), policy,
			fmt.Sprintf("%d/%d", p.Succeeded, p.Submitted),
			fmt.Sprintf("%d", p.Failed), startup, slow)
	}
	return t.String()
}
