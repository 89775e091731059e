// Command crossbroker runs the CrossBroker against a simulated grid
// and schedules the jobs described by the JDL files on its command
// line, reporting each job's scheduling phases and outcome — a
// self-contained demonstration of the paper's job-management system.
//
// Usage:
//
//	crossbroker [-sites N] [-nodes N] [-cpu DUR] [-horizon DUR] job1.jdl [job2.jdl ...]
//
// Jobs are submitted in argument order, one simulated second apart.
// The grid, broker, information system and fair-share manager all run
// in virtual time, so even hour-long scenarios return immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

func main() {
	sites := flag.Int("sites", 4, "number of grid sites")
	nodes := flag.Int("nodes", 4, "worker nodes per site")
	cpu := flag.Duration("cpu", 30*time.Second, "per-node CPU demand of each job")
	horizon := flag.Duration("horizon", 4*time.Hour, "maximum simulated time")
	user := flag.String("user", "/O=CrossGrid/CN=user", "submitting identity")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: crossbroker [flags] job1.jdl [job2.jdl ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	sys := core.NewSystem(core.SystemConfig{
		Seed:      2006,
		FairShare: &fairshare.Config{},
		Sites: []core.SiteSpec{{
			NameFormat: "site%02d", Count: *sites, Nodes: *nodes,
			Vary: func(i int, s *core.SiteSpec) {
				if i%2 == 1 { // half the grid is across the WAN
					s.Network = netsim.WideArea()
				}
			},
		}},
	})

	type sub struct {
		name string
		h    *broker.Handle
	}
	var subs []sub
	for i, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fatal("%v", err)
		}
		job, err := jdl.ParseJob(string(src))
		if err != nil {
			fatal("%s: %v", name, err)
		}
		// Stagger submissions by one simulated second.
		sys.Run(time.Duration(i) * time.Second)
		h, err := sys.Submit(broker.Request{Job: job, User: *user, CPU: *cpu})
		if err != nil {
			fatal("%s: %v", name, err)
		}
		subs = append(subs, sub{name: name, h: h})
	}

	sys.Run(*horizon)

	nameW := len("JOB")
	for _, s := range subs {
		if len(s.name) > nameW {
			nameW = len(s.name)
		}
	}
	fmt.Printf("%-*s %-9s %-10s %10s %10s %12s  %s\n",
		nameW, "JOB", "STATE", "SITE", "DISCOVERY", "SELECTION", "SUBMISSION", "NOTES")
	for _, s := range subs {
		h := s.h
		notes := ""
		if h.Err() != nil {
			notes = h.Err().Error()
		} else if h.Shared() {
			notes = "interactive VM (shared mode)"
		}
		if n := h.Resubmissions(); n > 0 {
			notes += fmt.Sprintf(" [%d resubmission(s)]", n)
		}
		fmt.Printf("%-*s %-9s %-10s %9.2fs %9.2fs %11.2fs  %s\n",
			nameW, s.name, h.State(), h.Site(),
			h.Phases.Discovery.Seconds(), h.Phases.Selection.Seconds(),
			h.Phases.Submission.Seconds(), notes)
	}
	fmt.Printf("\nfree interactive VMs: %d   broker-queued batch jobs: %d\n",
		sys.Broker.FreeAgents(), sys.Broker.PendingBatch())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crossbroker: "+format+"\n", args...)
	os.Exit(1)
}
