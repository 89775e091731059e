package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/experiments"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// registry-churn: the harness builds a wide grid on a sharded
// information service and submits JDL jobs that carry Requirements
// and Rank, while site records are republished with moved rank
// attributes between every two arrivals. It is the one workload where
// the registry is written while it is read, and the one that runs the
// compiled-expression path (replayed archive jobs carry neither
// clause).
const (
	churnShards    = 16
	churnClasses   = 8
	churnPerJob    = 16
	churnArrival   = 2 * time.Second
	churnMemBase   = 512
	churnMemSpread = 1024
)

// churnJob is one submission: its own parsed description (a broker
// receives each submission as text), CPU demand and user.
type churnJob struct {
	desc *jdl.Job
	cpu  time.Duration
	user string
}

type churnPublish struct {
	site, memoryMB int
}

// churnClassText is JDL class c for this seed. The shape of a class
// is fixed by its index, so every seed runs the same kind of workload:
// of every four classes two are interactive on a shared machine, one
// is interactive with exclusive access and one is batch; half rank by
// memory and half by free CPUs first. The seed only nudges the memory
// threshold.
func churnClassText(c int, rng *rand.Rand) string {
	text := fmt.Sprintf("Executable   = \"churn-class-%d\";\n", c)
	switch c % 4 {
	case 0, 1:
		text += fmt.Sprintf("JobType      = {\"interactive\", \"sequential\"};\nMachineAccess = \"shared\";\nPerformanceLoss = %d;\n", 5*(1+c%4))
	case 2:
		text += "JobType      = {\"interactive\", \"sequential\"};\nMachineAccess = \"exclusive\";\n"
	case 3:
		text += "JobType      = \"batch\";\n"
	}
	rank := "other.MemoryMB"
	if c >= churnClasses/2 {
		rank = "other.FreeCPUs * 1000 - other.MemoryMB"
	}
	return text + fmt.Sprintf("Requirements = other.OS == \"linux\" && other.MemoryMB >= %d;\nRank         = %s;\n",
		churnMemBase+64*c+rng.Intn(16), rank)
}

// writeChurnInputs generates the JDL class texts, the job list and
// the republish schedule from the seed.
func writeChurnInputs(s spec, seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < churnClasses; c++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("class-%d.jdl", c)), []byte(churnClassText(c, rng)), 0o644); err != nil {
			return err
		}
	}
	write := func(name string, n int, line func(w *bufio.Writer)) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for i := 0; i < n; i++ {
			line(w)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	// Classes come in shuffled rounds of all eight, so every seed has
	// the same mix (3 interactive : 1 batch) in a different order.
	var round []int
	if err := write("jobs.txt", s.jobs, func(w *bufio.Writer) {
		if len(round) == 0 {
			round = rng.Perm(churnClasses)
		}
		c := round[0]
		round = round[1:]
		cpu := 60 + rng.Intn(121)
		if c%4 == 3 {
			cpu = 600 + rng.Intn(601)
		}
		fmt.Fprintf(w, "%d %d u%02d\n", c, cpu, 1+rng.Intn(50))
	}); err != nil {
		return err
	}
	return write("churn.txt", s.jobs*churnPerJob, func(w *bufio.Writer) {
		fmt.Fprintf(w, "%d %d\n", rng.Intn(s.sites), churnMemBase+rng.Intn(churnMemSpread))
	})
}

// readChurnInputs is the validating pass: every job's JDL is parsed
// into its own description, and the schedule is range-checked.
func readChurnInputs(s spec, dir string) ([]churnJob, []churnPublish, error) {
	texts := make([]string, churnClasses)
	for c := range texts {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("class-%d.jdl", c)))
		if err != nil {
			return nil, nil, err
		}
		texts[c] = string(data)
	}
	scan := func(name string, n int, line func(sc *bufio.Scanner) error) error {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return fmt.Errorf("%s: %d lines, want %d", name, i, n)
			}
			if err := line(sc); err != nil {
				return fmt.Errorf("%s line %d: %w", name, i+1, err)
			}
		}
		return sc.Err()
	}
	jobs := make([]churnJob, 0, s.jobs)
	if err := scan("jobs.txt", s.jobs, func(sc *bufio.Scanner) error {
		var class, cpu int
		var user string
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %s", &class, &cpu, &user); err != nil {
			return err
		}
		if class < 0 || class >= churnClasses || cpu <= 0 {
			return fmt.Errorf("class %d cpu %d out of range", class, cpu)
		}
		desc, err := jdl.ParseJob(texts[class])
		if err != nil {
			return err
		}
		jobs = append(jobs, churnJob{desc, time.Duration(cpu) * time.Second, user})
		return nil
	}); err != nil {
		return nil, nil, err
	}
	pubs := make([]churnPublish, 0, s.jobs*churnPerJob)
	if err := scan("churn.txt", s.jobs*churnPerJob, func(sc *bufio.Scanner) error {
		var p churnPublish
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &p.site, &p.memoryMB); err != nil {
			return err
		}
		if p.site < 0 || p.site >= s.sites {
			return fmt.Errorf("site %d out of range", p.site)
		}
		pubs = append(pubs, p)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return jobs, pubs, nil
}

// sweepBroker is a broker configured as the replay sweep configures
// its own: bounded recovery, backed-off retries, top-16 candidates.
func sweepBroker(sim *simclock.Sim, info broker.Directory, tr *trace.Tracer, seed int64) *broker.Broker {
	return broker.New(broker.Config{
		Sim: sim, Info: info, Trace: tr, Seed: seed,
		MaxResubmits:     10,
		RetryInterval:    15 * time.Second,
		RetryBackoff:     2,
		RetryMaxInterval: 4 * time.Minute,
		AgentHeartbeat:   10 * time.Second,
		TopK:             16,
	})
}

func setupChurn(s spec, seed int64, dir string, rec *recorder) (runFunc, error) {
	id := rec.begin("setup.generate")
	err := writeChurnInputs(s, seed, dir)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("setup.validate")
	jobs, pubs, err := readChurnInputs(s, dir)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("setup.grid")
	sim := simclock.NewSim(time.Time{})
	svc := infosys.NewSharded(sim, 500*time.Millisecond, churnShards)
	var info broker.Directory = svc
	var tr *trace.Tracer
	if rec != nil {
		info = timedDirectory{svc, rec}
		tr = trace.New(sim.Now)
	}
	b := sweepBroker(sim, info, tr, seed)
	sites := make([]*site.Site, s.sites)
	attrs := make([]map[string]any, s.sites)
	for i := range sites {
		network := netsim.CampusGrid()
		if i%2 == 1 {
			network = netsim.WideArea()
		}
		attrs[i] = map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": churnMemBase + i%churnMemSpread}
		sites[i] = site.New(sim, site.Config{
			Name:     fmt.Sprintf("c%04d", i),
			Nodes:    s.nodes,
			Network:  network,
			Costs:    site.DefaultCosts(),
			LRMCycle: 5 * time.Second,
			// The harness owns republishing: the schedule is the churn.
			PublishInterval: 10000 * time.Hour,
			Attrs:           attrs[i],
		})
		b.RegisterSite(sites[i])
	}
	sim.RunFor(time.Minute) // land the initial publishes
	rec.end(id)
	if svc.Len() != s.sites {
		return nil, fmt.Errorf("%s: %d records published, want %d", s.name, svc.Len(), s.sites)
	}

	every := s.burstEvery()
	return func(meter *speedometer) (experiments.ReplayPoint, error) {
		p := experiments.ReplayPoint{Speedup: 1}
		startup := metrics.NewSeries("startup")
		turnaround := metrics.NewSeries("turnaround")
		terminal := 0
		var maxRuntime time.Duration
		simStart := sim.Now()
		for i, j := range jobs {
			if i%every == 0 {
				meter.burst()
			}
			for _, c := range pubs[i*churnPerJob : (i+1)*churnPerJob] {
				attrs[c.site]["MemoryMB"] = c.memoryMB
				id := rec.begin("infosys.publish")
				err := svc.Publish(sites[c.site].Record())
				rec.end(id)
				if err != nil {
					return p, err
				}
			}
			interactive := j.desc.Interactive
			if interactive {
				p.Interactive++
			} else {
				p.Batch++
			}
			if j.cpu > maxRuntime {
				maxRuntime = j.cpu
			}
			id := rec.begin("broker.submit")
			h, err := b.Submit(broker.Request{Job: j.desc, User: j.user, CPU: j.cpu})
			rec.end(id)
			if err != nil {
				return p, fmt.Errorf("%s: submit job %d: %w", s.name, i, err)
			}
			p.Submitted++
			h.Done.OnFire(func() {
				terminal++
				p.Resubmissions += h.Resubmissions()
				switch h.State() {
				case broker.Done:
					p.Done++
					if interactive {
						startup.AddDuration(h.Phases.Submission)
						if h.Shared() {
							p.SharedPlacements++
						}
					} else {
						turnaround.AddDuration(h.Turnaround())
					}
				case broker.Failed:
					p.Failed++
				}
			})
			id = rec.begin("simclock.runfor")
			sim.RunFor(churnArrival)
			rec.end(id)
		}
		const chunk = 15 * time.Minute
		for waited := time.Duration(0); terminal < p.Submitted && waited < maxRuntime+48*time.Hour; waited += chunk {
			id := rec.begin("simclock.runfor")
			sim.RunFor(chunk)
			rec.end(id)
		}
		p.Pending = p.Submitted - terminal
		p.SimSeconds = sim.Now().Sub(simStart).Seconds()
		p.SimJobsPerSec = float64(p.Submitted) / p.SimSeconds
		p.GoodputPct = 100 * float64(p.Done) / float64(p.Submitted)
		if startup.Len() > 0 {
			sum := startup.Summarize()
			p.MeanStartupSec, p.P95StartupSec = sum.Mean, sum.P95
		}
		if turnaround.Len() > 0 {
			sum := turnaround.Summarize()
			p.MeanTurnaroundH, p.P95TurnaroundH = sum.Mean/3600, sum.P95/3600
		}
		p.Trace = tr.Snapshot(s.name)
		return p, nil
	}, nil
}
