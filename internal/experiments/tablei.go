package experiments

import (
	"fmt"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
)

// Scenario selects where the execution machine lives, per Section 6:
// the campus grid or the IFCA center across the Spanish Internet.
type Scenario string

// The paper's two measurement scenarios.
const (
	Campus Scenario = "campus"
	IFCA   Scenario = "ifca"
)

func (s Scenario) profile() netsim.Profile {
	if s == IFCA {
		return netsim.WideArea()
	}
	return netsim.CampusGrid()
}

// TableIConfig parametrizes the response-time experiment.
type TableIConfig struct {
	// Sites is the grid size during discovery/selection (the paper
	// used a set of 20 remote sites located all over Europe).
	Sites int
	// Runs is the number of submissions per method (the paper used
	// 100).
	Runs int
	// Scenario places the execution machine.
	Scenario Scenario
	// Seed drives the broker's randomized selection; each run derives
	// its own sub-seed, so results do not depend on scheduling.
	Seed int64
	// Workers bounds the number of runs simulated concurrently
	// (independent Sim instances on real goroutines); 0 uses one per
	// CPU. The output is identical for any worker count.
	Workers int
}

func (c *TableIConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 20
	}
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Scenario == "" {
		c.Scenario = Campus
	}
}

// TableIRow is one row of Table I.
type TableIRow struct {
	// Method is the submission path: "glogin", "idle" (interactive
	// exclusive), "virtual machine" (interactive shared) or
	// "job+agent" (batch).
	Method string
	// Manual marks methods where discovery/selection is hand-made by
	// the user (Glogin).
	Manual bool
	// Local marks methods using the broker's combined local
	// discovery+selection (the interactive-VM path).
	Local bool
	// Discovery, Selection and Submission summarize the measured phase
	// durations in seconds across runs.
	Discovery, Selection, Submission metrics.Summary
}

// glogin calibration: the environment/session setup Glogin transfers
// through the gatekeeper, and the remote shell start time.
const (
	gloginSessionBytes = 6 << 20
	gloginShellStart   = 9400 * time.Millisecond
)

// tableICell is one run's measurements: the glogin baseline plus the
// three broker methods (idle, virtual machine, job+agent).
type tableICell struct {
	glogin         time.Duration
	disc, sel, sub [3]time.Duration
}

// TableI reproduces the paper's response-time table: 100 submissions
// per method over a grid of 20 sites, with the execution machine on
// the campus network or at IFCA. Runs are independent (seed, run)
// cells, each simulated on its own Sim instance across a worker pool
// and merged in run order.
func TableI(cfg TableIConfig) ([]TableIRow, error) {
	cfg.setDefaults()
	rows := []TableIRow{
		{Method: "glogin", Manual: true},
		{Method: "idle"},
		{Method: "virtual machine", Local: true},
		{Method: "job+agent"},
	}
	var disc, sel, sub [4]*metrics.Series
	for i := range disc {
		disc[i] = metrics.NewSeries("discovery")
		sel[i] = metrics.NewSeries("selection")
		sub[i] = metrics.NewSeries("submission")
	}

	cells, err := runCells(cfg.Runs, cfg.Workers, func(run int) (tableICell, error) {
		// A distinct prime-stride sub-seed per run keeps the randomized
		// selection streams independent of both each other and the
		// worker schedule.
		return tableIRun(cfg, cfg.Seed+int64(run)*7919)
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		sub[0].AddDuration(c.glogin)
		for m := 0; m < 3; m++ {
			disc[m+1].AddDuration(c.disc[m])
			sel[m+1].AddDuration(c.sel[m])
			sub[m+1].AddDuration(c.sub[m])
		}
	}

	for i := range rows {
		rows[i].Discovery = disc[i].Summarize()
		rows[i].Selection = sel[i].Summarize()
		rows[i].Submission = sub[i].Summarize()
	}
	return rows, nil
}

// tableIRun simulates one run cell: a fresh grid, one provisioned
// agent, then one submission per method.
func tableIRun(cfg TableIConfig, seed int64) (tableICell, error) {
	var cell tableICell

	// The execution site lives on the scenario network and is always
	// preferred by rank; the remaining sites are scattered over the
	// European WAN (they only matter to the selection phase).
	execProfile := cfg.Scenario.profile()
	sys := core.NewSystem(core.SystemConfig{
		Index: core.IndexSpec{Latency: 500 * time.Millisecond}, // the index lives in Germany: ~0.5 s per query
		Seed:  seed,
		Sites: []core.SiteSpec{{
			Name: "exec", Nodes: 4, Network: execProfile,
			Attrs: map[string]any{"Arch": "i686", "OS": "linux", "Preferred": 1},
		}, {
			NameFormat: "eu%02d", Count: cfg.Sites - 1, Nodes: 4, Network: netsim.WideArea(),
			Attrs: map[string]any{"Arch": "i686", "OS": "linux", "Preferred": 0},
		}},
	})
	sim, b, execSite := sys.Sim, sys.Broker, sys.Sites[0]
	rank := jdl.Expr{Node: jdl.Ref{Scoped: true, Name: "Preferred"}}

	// Provision one long-lived agent on the execution site for the
	// virtual-machine rows.
	agentJob := &jdl.Job{Executable: "background_batch", NodeNumber: 1, Rank: &rank}
	ha, err := b.Submit(broker.Request{Job: agentJob, User: "batchowner", CPU: 1000 * time.Hour})
	if err != nil {
		return cell, err
	}
	sim.RunFor(5 * time.Minute)
	if ha.State() != broker.Running {
		return cell, fmt.Errorf("experiments: agent provisioning failed: %v %v", ha.State(), ha.Err())
	}

	runOne := func(method int, req broker.Request) error {
		h, err := b.Submit(req)
		if err != nil {
			return err
		}
		// Generous horizon; jobs are short.
		sim.RunFor(15 * time.Minute)
		if h.State() != broker.Done {
			return fmt.Errorf("experiments: method %d run failed: %v %v", method, h.State(), h.Err())
		}
		cell.disc[method] = h.Phases.Discovery
		cell.sel[method] = h.Phases.Selection
		cell.sub[method] = h.Phases.Submission
		return nil
	}

	// Glogin: destination chosen by hand; gatekeeper traversal,
	// session setup transfer, remote shell start.
	start := sim.Now()
	sim.Go(func() {
		c := execSite.Costs()
		sim.Sleep(execProfile.RTT() + c.Auth + c.GRAM)
		sim.Sleep(execProfile.TransferTime(gloginSessionBytes))
		sim.Sleep(gloginShellStart)
		cell.glogin = sim.Since(start)
	})
	sim.RunFor(5 * time.Minute)

	// Idle: interactive job in exclusive mode.
	if err := runOne(0, broker.Request{
		Job: &jdl.Job{Executable: "iapp", Interactive: true, NodeNumber: 1,
			Access: jdl.ExclusiveAccess, Rank: &rank},
		User: "user1", CPU: time.Second,
	}); err != nil {
		return cell, err
	}

	// Virtual machine: interactive job in shared mode, landing on
	// the provisioned agent.
	if err := runOne(1, broker.Request{
		Job: &jdl.Job{Executable: "iapp", Interactive: true, NodeNumber: 1,
			Access: jdl.SharedAccess, PerformanceLoss: 10},
		User: "user2", CPU: time.Second,
	}); err != nil {
		return cell, err
	}

	// Job+agent: a batch job submitted together with its agent.
	if err := runOne(2, broker.Request{
		Job:  &jdl.Job{Executable: "bapp", NodeNumber: 1, Rank: &rank},
		User: "user3", CPU: time.Second,
	}); err != nil {
		return cell, err
	}
	return cell, nil
}

// RenderTableI formats rows like the paper's Table I.
func RenderTableI(scenario Scenario, rows []TableIRow) string {
	t := metrics.NewTable("Method", "Resource Discovery (s)", "Resource Selection (s)",
		fmt.Sprintf("Submission %s (s)", scenario))
	for _, r := range rows {
		switch {
		case r.Manual:
			t.AddRow(r.Method, "hand-made by user", "hand-made by user",
				fmt.Sprintf("%.2f", r.Submission.Mean))
		case r.Local:
			t.AddRow(r.Method, "local (combined)",
				fmt.Sprintf("%.2f", r.Selection.Mean),
				fmt.Sprintf("%.2f", r.Submission.Mean))
		default:
			t.AddRow(r.Method,
				fmt.Sprintf("%.2f", r.Discovery.Mean),
				fmt.Sprintf("%.2f", r.Selection.Mean),
				fmt.Sprintf("%.2f", r.Submission.Mean))
		}
	}
	return t.String()
}
