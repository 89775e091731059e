package experiments

import (
	"fmt"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/glidein"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/vmslot"
)

// Figure 8 workload calibration (Section 6.3): each iteration performs
// an I/O operation followed by a CPU burst. The reference execution
// measures ~0.921 s of CPU and ~6.06 ms of I/O per iteration. The I/O
// operation is part network (uncontended) and part CPU (kernel/copy
// work that contends with the co-located batch job), which is why the
// paper's I/O degradation is smaller than the CPU degradation.
const (
	fig8Burst = 921 * time.Millisecond
	fig8IONet = 3600 * time.Microsecond
	fig8IOCPU = 2420 * time.Microsecond
)

// Fig8Config parametrizes the VM load overhead experiment.
type Fig8Config struct {
	// Iterations is the loop count (the paper uses 1,000).
	Iterations int
	// PerformanceLosses are the shared-mode settings to measure (the
	// paper uses 10 and 25).
	PerformanceLosses []int
	// Quantum overrides the stride scheduler quantum (0 = default).
	Quantum time.Duration
	// Workers bounds how many cases are simulated concurrently; 0 uses
	// one per CPU.
	Workers int
}

func (c *Fig8Config) setDefaults() {
	if c.Iterations <= 0 {
		c.Iterations = 1000
	}
	if len(c.PerformanceLosses) == 0 {
		c.PerformanceLosses = []int{10, 25}
	}
	if c.Quantum <= 0 {
		// The agent's priority control operates at kernel granularity;
		// a 1 ms quantum plus immediate preemption of uncontended
		// slices models Unix priority scheduling on the paper's
		// testbed.
		c.Quantum = time.Millisecond
	}
}

// fig8MachineOpts configures the node CPU for the experiment: the
// scheduler quantum, plus pass-reset-on-wake (MaxCatchup 0). With
// priority-preemptive scheduling the interactive job pays no residual
// wait, and each phase — the I/O op's CPU part and the burst — shares
// the CPU proportionally at 100:PL. That yields the paper's measured
// shape directly: CPU loss tracking the attribute and I/O loss about
// half of it, growing with PL (Section 6.3's 5%/10%).
func fig8MachineOpts(cfg Fig8Config) []vmslot.Option {
	return []vmslot.Option{vmslot.WithQuantum(cfg.Quantum), vmslot.WithMaxCatchup(0)}
}

// Fig8Case is one curve pair of Figure 8.
type Fig8Case struct {
	// Name identifies the case: "exclusive", "shared-alone", or
	// "shared-pl<N>".
	Name string
	// CPU and IO hold the per-iteration times in seconds (the two
	// panels of Figure 8).
	CPU, IO *metrics.Series
}

// Fig8 reproduces the multiprogramming overhead experiment: the
// 1,000-iteration interactive loop in exclusive mode, in shared mode
// with an empty batch VM, and in shared mode against a CPU-bound batch
// job at each configured PerformanceLoss. The cases are independent
// single-machine simulations, run as parallel cells.
func Fig8(cfg Fig8Config) ([]Fig8Case, error) {
	cfg.setDefaults()
	return runCells(2+len(cfg.PerformanceLosses), cfg.Workers, func(i int) (Fig8Case, error) {
		switch i {
		case 0:
			return fig8Exclusive(cfg)
		case 1:
			return fig8Shared(cfg, -1)
		default:
			return fig8Shared(cfg, cfg.PerformanceLosses[i-2])
		}
	})
}

// fig8Loop is the measured iteration loop on a slot, one event chain:
// each iteration's I/O op (network wait, then its CPU part) and CPU
// burst continue in the event that ends the step before.
type fig8Loop struct {
	sim     *simclock.Sim
	slot    *vmslot.Slot
	left    int
	cpu, io *metrics.Series
	done    func()
	t0, t1  time.Time
}

// next starts the next iteration, or calls done after the last.
func (l *fig8Loop) next() {
	if l.left == 0 {
		l.done()
		return
	}
	l.left--
	l.t0 = l.sim.Now()
	l.sim.AfterFunc(fig8IONet, l.ioCPU)
}

func (l *fig8Loop) ioCPU() { l.slot.Start(fig8IOCPU).WaitThen(l.burst) }

func (l *fig8Loop) burst() {
	l.io.AddDuration(l.sim.Since(l.t0))
	l.t1 = l.sim.Now()
	l.slot.Start(fig8Burst).WaitThen(l.burstDone)
}

func (l *fig8Loop) burstDone() {
	l.cpu.AddDuration(l.sim.Since(l.t1))
	l.next()
}

// fig8Exclusive runs the job alone on an idle machine — the baseline
// the other cases are compared against.
func fig8Exclusive(cfg Fig8Config) (Fig8Case, error) {
	cfg.setDefaults()
	sim := simclock.NewSim(time.Time{})
	m := vmslot.NewMachine(sim, fig8MachineOpts(cfg)...)
	slot := m.NewSlot("job", 100)
	c := Fig8Case{Name: "exclusive", CPU: metrics.NewSeries("cpu"), IO: metrics.NewSeries("io")}
	loop := &fig8Loop{sim: sim, slot: slot, left: cfg.Iterations, cpu: c.CPU, io: c.IO, done: func() {}}
	sim.Post(loop.next)
	sim.Run()
	if c.CPU.Len() != cfg.Iterations {
		return c, fmt.Errorf("experiments: exclusive run incomplete: %d/%d", c.CPU.Len(), cfg.Iterations)
	}
	return c, nil
}

// fig8Shared runs the job on an agent's interactive VM. pl < 0 means
// no batch job shares the machine ("shared mode alone"); otherwise a
// CPU-bound batch job runs on the batch VM and the interactive job
// uses the given PerformanceLoss.
func fig8Shared(cfg Fig8Config, pl int) (Fig8Case, error) {
	name := "shared-alone"
	if pl >= 0 {
		name = fmt.Sprintf("shared-pl%d", pl)
	}
	c := Fig8Case{Name: name, CPU: metrics.NewSeries("cpu"), IO: metrics.NewSeries("io")}

	cfg.setDefaults()
	sim := simclock.NewSim(time.Time{})
	st := site.New(sim, site.Config{
		Name:        "node",
		Nodes:       1,
		Network:     netsim.CampusGrid(),
		Costs:       site.DefaultCosts(),
		LRMCycle:    time.Second,
		MachineOpts: fig8MachineOpts(cfg),
	})
	var payload *glidein.BatchPayload
	if pl >= 0 {
		payload = &glidein.BatchPayload{ID: "batch-hog", Owner: "batchuser", Work: 10000 * time.Hour}
	}
	var agent *glidein.Agent
	var launchErr error
	glidein.LaunchAsync(sim, st, payload, 0, glidein.Options{}, func(a *glidein.Agent, _ *batch.Handle, err error) {
		agent, launchErr = a, err
	})
	sim.RunFor(5 * time.Minute)
	if launchErr != nil {
		return c, launchErr
	}
	if agent == nil || agent.Node() == nil {
		return c, fmt.Errorf("experiments: agent did not start")
	}

	effPL := pl
	if effPL < 0 {
		effPL = 10 // irrelevant without a batch job; any value works
	}
	doneT, err := agent.StartInteractive(glidein.InteractiveJob{
		ID: "fig8", Owner: "interuser", PerformanceLoss: effPL,
		RunCB: func(ctx *glidein.InteractiveContext, done func()) {
			loop := &fig8Loop{sim: sim, slot: ctx.Slot, left: cfg.Iterations, cpu: c.CPU, io: c.IO, done: done}
			loop.next()
		},
	})
	if err != nil {
		return c, err
	}
	// ~1s of virtual time per iteration, plus slack.
	sim.RunFor(time.Duration(cfg.Iterations)*2*time.Second + time.Hour)
	if !doneT.Fired() || c.CPU.Len() != cfg.Iterations {
		return c, fmt.Errorf("experiments: %s incomplete: %d/%d iterations", name, c.CPU.Len(), cfg.Iterations)
	}
	return c, nil
}

// RenderFig8 summarizes the cases like the paper's Section 6.3 text:
// mean and standard deviation of CPU and I/O times, plus the loss
// relative to the first (exclusive) case.
func RenderFig8(cases []Fig8Case) string {
	t := metrics.NewTable("Case", "CPU mean (s)", "CPU sd", "CPU loss", "I/O mean (s)", "I/O sd", "I/O loss")
	if len(cases) == 0 {
		return t.String()
	}
	ref := cases[0]
	refCPU := ref.CPU.Summarize().Mean
	refIO := ref.IO.Summarize().Mean
	for _, c := range cases {
		cpu := c.CPU.Summarize()
		io := c.IO.Summarize()
		t.AddRow(c.Name,
			fmt.Sprintf("%.4f", cpu.Mean), fmt.Sprintf("%.2g", cpu.Stddev),
			fmt.Sprintf("%+.1f%%", (cpu.Mean/refCPU-1)*100),
			fmt.Sprintf("%.5f", io.Mean), fmt.Sprintf("%.2g", io.Stddev),
			fmt.Sprintf("%+.1f%%", (io.Mean/refIO-1)*100))
	}
	return t.String()
}
