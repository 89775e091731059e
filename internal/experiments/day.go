package experiments

import (
	"fmt"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
	"crossbroker/internal/workload"
)

// DayConfig parametrizes the day-in-the-life scenario: a synthetic
// job stream (Poisson arrivals, CrossGrid-flavored mix) replayed
// against the full broker stack for a simulated day.
type DayConfig struct {
	// Sites and NodesPerSite shape the grid (default 4x4).
	Sites, NodesPerSite int
	// Hours is the simulated horizon (default 24).
	Hours int
	// ArrivalsPerHour is the job arrival rate (default 6).
	ArrivalsPerHour float64
	// Seed drives arrivals, mix and broker randomization.
	Seed int64
	// FairShare enables accounting and fair-share queue ordering.
	FairShare bool
}

func (c *DayConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 4
	}
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.ArrivalsPerHour <= 0 {
		c.ArrivalsPerHour = 6
	}
}

// DayReport summarizes the replay.
type DayReport struct {
	// Submitted counts by kind.
	Batch, Interactive int
	// InteractiveOK / InteractiveFailed partition the interactive jobs
	// that finished within the horizon.
	InteractiveOK, InteractiveFailed int
	// SharedPlacements counts interactive jobs that ran on an
	// interactive VM.
	SharedPlacements int
	// MeanInteractiveStartup is the mean submission-to-first-output of
	// successful interactive jobs, in seconds.
	MeanInteractiveStartup float64
	// BatchDone counts batch jobs completed within the horizon.
	BatchDone int
	// MeanBatchTurnaround is their mean turnaround in hours.
	MeanBatchTurnaround float64
	// PendingAtEnd counts jobs still queued in the broker at the end.
	PendingAtEnd int
}

// Day replays a synthetic day against the broker.
func Day(cfg DayConfig) (DayReport, error) {
	cfg.setDefaults()
	var rep DayReport

	spec := core.SystemConfig{
		Index: core.IndexSpec{Latency: 500 * time.Millisecond},
		Seed:  cfg.Seed,
		Sites: []core.SiteSpec{{
			NameFormat: "s%02d", Count: cfg.Sites, Nodes: cfg.NodesPerSite, LRMCycle: 5 * time.Second,
		}},
	}
	if cfg.FairShare {
		spec.FairShare = &fairshare.Config{HalfLife: 2 * time.Hour, UpdateInterval: time.Minute}
	}
	sys := core.NewSystem(spec)
	sim, b := sys.Sim, sys.Broker

	arrivals, err := workload.NewPoisson(cfg.ArrivalsPerHour, cfg.Seed)
	if err != nil {
		return rep, err
	}
	mix := workload.NewMix(cfg.Seed + 100)
	horizon := time.Duration(cfg.Hours) * time.Hour

	var inter, batch []*broker.Handle
	var submitErr error

	// Arrival process: schedule the next submission recursively.
	var arrive func()
	arrive = func() {
		j := mix.Next()
		req := broker.Request{User: j.User, CPU: j.CPU}
		kind := &batch
		if j.Kind == workload.InteractiveJob {
			kind = &inter
			req.Job = &jdl.Job{Executable: "iapp", Interactive: true, NodeNumber: 1,
				Access: jdl.SharedAccess, PerformanceLoss: j.PerformanceLoss}
		} else {
			req.Job = &jdl.Job{Executable: "bapp", NodeNumber: 1}
		}
		h, err := b.Submit(req)
		if err != nil {
			submitErr = err
			return
		}
		*kind = append(*kind, h)
		sim.AfterFunc(arrivals.Next(), arrive)
	}
	sim.AfterFunc(arrivals.Next(), arrive)
	end := sim.Now().Add(horizon)
	sim.RunUntil(end)
	if submitErr != nil {
		return rep, submitErr
	}
	// The report is read at the horizon, with no drain: work still in
	// flight then counts in neither outcome, and the broker's queue
	// depth is reported as is.
	rep.PendingAtEnd = b.PendingBatch()

	it, bt := tallyOf(inter), tallyOf(batch)
	rep.Batch, rep.Interactive = len(batch), len(inter)
	rep.InteractiveOK, rep.InteractiveFailed = it.Done, it.Failed
	rep.SharedPlacements, rep.BatchDone = it.SharedPlacements, bt.Done
	rep.MeanInteractiveStartup = it.Summary().Startup.Mean
	rep.MeanBatchTurnaround = bt.Summary().Turnaround.Mean / 3600
	return rep, nil
}

// RenderDay formats the report of the day Day ran under cfg, whose
// unset fields read as Day's defaults.
func RenderDay(cfg DayConfig, rep DayReport) string {
	cfg.setDefaults()
	return fmt.Sprintf(`Day in the life: %d sites x %d nodes, %.1f arrivals/h for %dh (seed %d)
  submitted:            %d batch, %d interactive
  interactive outcome:  %d ok, %d failed, %d on interactive VMs
  interactive startup:  %.2f s mean (successful jobs)
  batch completed:      %d (mean turnaround %.2f h)
  broker queue at end:  %d
`, cfg.Sites, cfg.NodesPerSite, cfg.ArrivalsPerHour, cfg.Hours, cfg.Seed,
		rep.Batch, rep.Interactive,
		rep.InteractiveOK, rep.InteractiveFailed, rep.SharedPlacements,
		rep.MeanInteractiveStartup,
		rep.BatchDone, rep.MeanBatchTurnaround,
		rep.PendingAtEnd)
}
