// Command gridbench regenerates every table and figure of the paper's
// evaluation section, and the studies built on them:
//
//	gridbench -exp table1                # Table I, both scenarios
//	gridbench -exp load                  # interactive availability vs grid occupancy
//	gridbench -exp day                   # synthetic day-in-the-life replay
//	gridbench -exp fig6                  # campus-grid streaming overhead
//	gridbench -exp fig7                  # wide-area streaming overhead
//	gridbench -exp fig8                  # VM load overhead
//	gridbench -exp ablations             # design-choice studies
//	gridbench -exp scale                 # infosys scaling sweep -> JSON
//	gridbench -exp chaos                 # broker recovery under injected faults -> JSON
//	gridbench -exp federation            # federated-broker chaos sweep -> JSON
//	gridbench -exp dataaware             # data-aware vs data-blind placement -> JSON
//	gridbench -exp replay -trace f.swf   # replay a recorded workload -> JSON
//	gridbench -exp checktrace -tracein f # check an exported event log's invariants
//	gridbench -exp all                   # all of the above but replay and checktrace
//
// Each experiment reads the flags its row of the table below names: a
// flag set on the command line that the named experiment does not read
// exits 2, as do -out, -baseline and -traceout under -exp all, where
// each would name several experiments' files. -exp, -cpuprofile and
// -memprofile go with every experiment; -fetch URL takes no other flag.
//
// Figures 6 and 7 run in real time over shaped in-memory networks;
// -scale shrinks network delays (default 1.0 = paper-like latencies)
// and -rounds controls the sequence count (the paper used 1,000).
// Table I and Figure 8 run in virtual time and finish in seconds
// regardless of their configured size. -series additionally dumps the
// per-iteration series (the papers' plotted points) as CSV to stdout.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"crossbroker/internal/experiments"
	"crossbroker/internal/netsim"
	"crossbroker/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stderr))
}

// options holds every parsed flag, each field named after its flag.
type options struct {
	exp, out, baseline, traceout, tracein, chromeout, trace, window, speedups string
	fetch, cpuprofile, memprofile                                             string
	rounds, runs, iters, synth, sites, nodes                                  int
	scale, tolerance                                                          float64
	series, quick, delta                                                      bool
	seed                                                                      int64
}

// experiment is one row of the table gridbench runs from.
type experiment struct {
	name   string
	inAll  bool     // whether -exp all runs it
	report string   // the committed BENCH_*.json it writes unless -out names another file
	reads  []string // the flags it reads besides the global ones
	run    func(options) error
}

// runs reports whether -exp exp runs e.
func (e experiment) runs(exp string) bool { return e.name == exp || exp == "all" && e.inAll }

// table lists the experiments in -exp all's run order. replay needs a
// workload log and checktrace an event log, so -exp all runs neither.
var table = []experiment{
	{"table1", true, "", []string{"runs", "seed"}, table1},
	{"load", true, "", []string{"seed"}, loadSweep},
	{"day", true, "", []string{"seed"}, day},
	{"fig6", true, "", []string{"rounds", "scale", "seed", "series"}, func(o options) error { return pingpong("fig6", netsim.CampusGrid(), o) }},
	{"fig7", true, "", []string{"rounds", "scale", "seed", "series"}, func(o options) error { return pingpong("fig7", netsim.WideArea(), o) }},
	{"fig8", true, "", []string{"iters", "series"}, fig8},
	{"ablations", true, "", []string{"scale", "seed"}, ablations},
	{"scale", true, "BENCH_infosys.json", []string{"out", "baseline", "tolerance", "seed", "quick"}, scaleExp},
	{"chaos", true, "BENCH_chaos.json", []string{"out", "traceout", "seed", "quick", "delta"}, chaos},
	{"federation", true, "BENCH_federation.json", []string{"out", "baseline", "tolerance", "traceout", "seed", "quick"}, federation},
	{"dataaware", true, "BENCH_dataaware.json", []string{"out", "baseline", "tolerance", "seed", "quick"}, dataaware},
	{"replay", false, "BENCH_replay.json", []string{"out", "baseline", "tolerance", "traceout", "seed", "trace", "synth", "window", "speedups", "sites", "nodes"}, replay},
	{"checktrace", false, "", []string{"tracein", "chromeout"}, checktrace},
}

// global lists the flags every experiment takes.
var global = []string{"exp", "cpuprofile", "memprofile"}

// oneFile lists the flags that each name one experiment's own file, so
// -exp all, which runs several, refuses them.
var oneFile = []string{"out", "baseline", "traceout"}

// names lists the values -exp accepts, in run order.
func names() (ns []string) {
	for _, e := range table {
		ns = append(ns, e.name)
	}
	return append(ns, "all")
}

// flagSet defines every gridbench flag on o.
func flagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(names(), ", "))
	fs.IntVar(&o.rounds, "rounds", 1000, "ping-pong sequences per cell (figs 6/7)")
	fs.IntVar(&o.runs, "runs", 100, "submissions per method (table 1)")
	fs.IntVar(&o.iters, "iters", 1000, "loop iterations (fig 8)")
	fs.Float64Var(&o.scale, "scale", 1.0, "network delay scale for real-time experiments")
	fs.BoolVar(&o.series, "series", false, "dump raw per-iteration series as CSV")
	fs.Int64Var(&o.seed, "seed", 2006, "randomization seed")
	fs.StringVar(&o.out, "out", "", "output path for the one JSON-writing experiment named by -exp (default: its committed BENCH_*.json name)")
	fs.BoolVar(&o.quick, "quick", false, "shrink -exp chaos, federation, dataaware and scale for smoke runs")
	fs.StringVar(&o.traceout, "traceout", "", "enable event tracing in -exp chaos, federation or replay and write the logs as JSONL here")
	fs.StringVar(&o.tracein, "tracein", "", "JSONL event log to verify with -exp checktrace")
	fs.StringVar(&o.chromeout, "chromeout", "", "also convert -tracein to Chrome trace_event JSON at this path")
	fs.StringVar(&o.baseline, "baseline", "", "committed BENCH_*.json of the experiment named by -exp to gate its results against")
	fs.Float64Var(&o.tolerance, "tolerance", 0.25, "allowed fractional regression vs a baseline before failing")
	fs.BoolVar(&o.delta, "delta", false, "give -exp chaos a delta-logged index, which the broker reads by subscription")
	fs.StringVar(&o.trace, "trace", "", "SWF/GWF workload log to drive -exp replay")
	fs.IntVar(&o.synth, "synth", 0, "generate a deterministic synthetic archive with this many jobs for -exp replay (instead of -trace)")
	fs.StringVar(&o.window, "window", "", "trace window for -exp replay as N:M hours (default whole trace)")
	fs.StringVar(&o.speedups, "speedups", "", "comma-separated arrival speedups for -exp replay (default 1,2,4)")
	fs.IntVar(&o.sites, "sites", 0, "replay grid sites (0 = 4, or 8 with -synth)")
	fs.IntVar(&o.nodes, "nodes", 0, "replay nodes per site (0 = 8, or 16 with -synth)")
	fs.StringVar(&o.fetch, "fetch", "", "download a workload archive URL into the local content-addressed cache and print its path (see EXPERIMENTS.md)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return fs
}

// parse parses args and checks each flag set on the command line
// against the table, printing what it refuses to stderr.
func parse(args []string, stderr io.Writer) (o options, err error) {
	fs := flagSet(&o, stderr)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.fetch != "":
		if fs.NFlag() > 1 {
			err = errors.New("-fetch reads no other flag")
		}
	case !slices.Contains(names(), o.exp):
		err = fmt.Errorf("unknown experiment %q (valid: %s)", o.exp, strings.Join(names(), ", "))
	default:
		fs.Visit(func(f *flag.Flag) {
			read := slices.Contains(global, f.Name) || slices.ContainsFunc(table, func(e experiment) bool {
				return e.runs(o.exp) && slices.Contains(e.reads, f.Name)
			})
			switch {
			case err != nil:
			case o.exp == "all" && slices.Contains(oneFile, f.Name):
				err = errors.New("-out and -baseline name one experiment's report and -traceout names one experiment's event log: pass -exp with them")
			case !read:
				err = fmt.Errorf("-exp %s does not read -%s", o.exp, f.Name)
			case f.Name == "tolerance" && o.baseline == "":
				err = errors.New("-tolerance bounds the -baseline gate: pass -baseline with it")
			}
		})
	}
	if err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", err)
	}
	return o, err
}

// realMain carries the exit code back so deferred profile writers run
// before the process exits (os.Exit skips defers): 0 on success, 1 when
// an experiment fails, 2 on a usage error.
func realMain(args []string, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}

	if o.fetch != "" {
		path, err := workload.Fetch(o.fetch, workload.FetchOptions{})
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: -fetch: %v\n", err)
			return 1
		}
		fmt.Println(path)
		return 0
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(o.memprofile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "gridbench: -memprofile: %v\n", err)
			}
		}()
	}

	for _, e := range table {
		if !e.runs(o.exp) {
			continue
		}
		eo := o
		eo.out = cmp.Or(o.out, e.report)
		start := time.Now()
		if err := e.run(eo); err != nil {
			fmt.Fprintf(stderr, "gridbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func table1(o options) error {
	for _, sc := range []experiments.Scenario{experiments.Campus, experiments.IFCA} {
		rows, err := experiments.TableI(experiments.TableIConfig{Runs: o.runs, Scenario: sc, Seed: o.seed})
		if err != nil {
			return err
		}
		fmt.Printf("Table I — response time for jobs (seconds), execution at %s\n", sc)
		fmt.Println(experiments.RenderTableI(sc, rows))
	}
	fmt.Println(`Paper reference (Table I): Glogin 16.43/20.12; Idle 0.5/3/17.2;
Virtual machine 6.79; Job+agent 29.3 (campus submission column).`)
	return nil
}

func loadSweep(o options) error {
	pts, err := experiments.LoadSweep([]float64{0, 0.25, 0.5, 0.75, 1.0}, o.seed)
	if err != nil {
		return err
	}
	fmt.Println("Interactive availability vs grid occupancy (the paper's motivation)")
	fmt.Println(experiments.RenderLoadSweep(pts))
	fmt.Println(`At full batch occupancy a conventional (exclusive-only) broker locks
interactive work out; the multiprogramming mechanism keeps placing it
within seconds at a bounded cost to the batch jobs (Section 5.2).`)
	return nil
}

func day(o options) error {
	rep, err := experiments.Day(o.seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderDay(o.seed, rep))
	return nil
}

func pingpong(name string, prof netsim.Profile, o options) error {
	dir, err := os.MkdirTemp("", "gridbench-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sizes := []int{10, 100, 1000, 10000}
	res, err := experiments.PingPongSuite(experiments.PingPongConfig{
		Profile:  prof.Scale(o.scale),
		Sizes:    sizes,
		Rounds:   o.rounds,
		SpillDir: dir,
		Seed:     o.seed,
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure %s — sequential I/O streaming, %s profile (scale %.2f, %d rounds)",
		strings.TrimPrefix(name, "fig"), prof.Name, o.scale, o.rounds)
	fmt.Println(experiments.RenderPingPong(title, res, sizes))
	if o.series {
		fmt.Println("method,size,sequence,seconds")
		for _, m := range experiments.AllMethods() {
			for _, size := range sizes {
				s := res[m][size]
				for i := 0; i < s.Len(); i++ {
					fmt.Printf("%s,%d,%d,%.9f\n", m, size, i, s.At(i))
				}
			}
		}
	}
	return nil
}

func fig8(o options) error {
	cases, err := experiments.Fig8(experiments.Fig8Config{Iterations: o.iters})
	if err != nil {
		return err
	}
	fmt.Printf("Figure 8 — VM load overhead (%d iterations)\n", o.iters)
	fmt.Println(experiments.RenderFig8(cases))
	fmt.Println(`Paper reference (Section 6.3): reference CPU 0.921 s (sd 0.001), I/O
6.06 ms (sd 6.9e-5); PL=10 -> CPU +8%, I/O +5%; PL=25 -> CPU +22%, I/O +10%.`)
	if o.series {
		fmt.Println("case,iteration,cpu_seconds,io_seconds")
		for _, c := range cases {
			for i := 0; i < c.CPU.Len(); i++ {
				fmt.Printf("%s,%d,%.9f,%.9f\n", c.Name, i, c.CPU.At(i), c.IO.At(i))
			}
		}
	}
	return nil
}

func ablations(o options) error {
	fmt.Println("Ablation: ssh packetization block size, 10 KB round trip (campus)")
	blocks, err := experiments.BlockSizeSweep(netsim.CampusGrid().Scale(o.scale), nil, 100)
	if err != nil {
		return err
	}
	for _, bs := range []int{256, 512, 1024, 4096, 16384} {
		if s, ok := blocks[bs]; ok {
			fmt.Printf("  block %6d B: mean %.6f s\n", bs, s.Mean)
		}
	}

	fmt.Println("\nAblation: exclusive-temporal-access lease duration (6 jobs, 6 single-node sites)")
	leases, err := experiments.LeaseSweep(nil, 6, 6, o.seed)
	if err != nil {
		return err
	}
	for _, r := range leases {
		fmt.Printf("  lease %8v: %d ok, %d failed, %d resubmissions\n",
			r.Lease, r.Succeeded, r.Failed, r.Resubmissions)
	}

	fmt.Println("\nAblation: randomized vs deterministic selection (6 jobs, 6 sites)")
	pol, err := experiments.SelectionPolicy(6, 6)
	if err != nil {
		return err
	}
	for _, r := range pol {
		fmt.Printf("  %-13s: %d distinct sites used, %d resubmissions\n",
			r.Policy, r.DistinctSites, r.Resubmissions)
	}

	fmt.Println("\nAblation: stride quantum vs CPU-division accuracy (PL=25)")
	quanta, err := experiments.QuantumSweep(nil, 50)
	if err != nil {
		return err
	}
	for _, r := range quanta {
		fmt.Printf("  quantum %8v: measured loss %.1f%% (attribute: 25%%)\n",
			r.Quantum, r.MeasuredLoss*100)
	}

	fmt.Println("\nAblation: multiprogramming degree (Section 5.2 extension; 4 jobs, 1 node)")
	degrees, err := experiments.DegreeSweep([]int{1, 2, 4}, 4)
	if err != nil {
		return err
	}
	for _, r := range degrees {
		fmt.Printf("  degree %d: %d/4 jobs hosted, mean 10-min burst took %6.0fs\n",
			r.Degree, r.Placed, r.MeanBurst)
	}

	fmt.Println("\nFair-share scenario after 10 update intervals (higher = worse priority)")
	for _, u := range experiments.FairShareScenario(10) {
		fmt.Printf("  %-17s: %.4f\n", u.Name, u.Priority)
	}
	return nil
}
