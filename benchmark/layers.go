package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/broker"
	"crossbroker/internal/datacat"
	"crossbroker/internal/experiments"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/glidein"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
	"crossbroker/internal/workload"
	"crossbroker/internal/workload/gwf"
)

// The per-layer ledger: each layer's exported functions, called in a
// loop from outside, host nanoseconds and allocations per operation.
// A layer is a module of the program; the names are the modules'.
// Every loop runs for at least `loop` per round and the best round
// counts, and the clock is the process's CPU time, both for the reason
// the end-to-end times are best-of-K CPU seconds: on a shared host a
// loop can lose the processor for longer than it runs.

const layersChild = "layers"

// layerRun carries the loop settings and collects the results.
type layerRun struct {
	loop   time.Duration
	rounds int
	seed   int64
	dir    string
	out    map[string]float64
}

// chunk is how many operations a loop body issues before it lets the
// clock dispatch them, so event heaps stay at a realistic depth.
const chunk = 1000

// bench times fn(n), which performs n operations. It grows n until
// one call lasts the loop time, then repeats that call and returns the
// best round: nanoseconds, allocations and bytes per operation.
func (l *layerRun) bench(fn func(n int)) (ns, allocs, bytes float64) {
	return l.benchPart(func(n int) time.Duration {
		t := cpuClock()
		fn(n)
		return cpuClock() - t
	})
}

// benchPart is bench for a body that times only part of itself, on
// cpuClock, and returns that part's duration.
func (l *layerRun) benchPart(fn func(n int) time.Duration) (ns, allocs, bytes float64) {
	n := 1
	for {
		t := time.Now()
		d := fn(n)
		if d >= l.loop || time.Since(t) >= 4*l.loop || n >= 1<<30 {
			break
		}
		grow := 100.0
		if d > 0 {
			grow = min(grow, 1.2*float64(l.loop)/float64(d))
		}
		n = int(float64(n)*max(grow, 1.1)) + 1
	}
	ns, allocs, bytes = -1, -1, -1
	for r := 0; r < l.rounds; r++ {
		// Start every round from a collected heap: the garbage of the
		// loops before must not set this loop's heap size, or fresh
		// pages (and their faults) are charged to whoever allocates next.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := fn(n)
		runtime.ReadMemStats(&after)
		if v := float64(d) / float64(n); ns < 0 || v < ns {
			ns = v
		}
		if v := float64(after.Mallocs-before.Mallocs) / float64(n); allocs < 0 || v < allocs {
			allocs = v
		}
		if v := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); bytes < 0 || v < bytes {
			bytes = v
		}
	}
	return ns, allocs, bytes
}

// inChunks calls body with the sizes of consecutive chunks of n.
func inChunks(n int, body func(k int)) {
	for n > 0 {
		k := min(n, chunk)
		body(k)
		n -= k
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runLayers measures every layer. A failed expectation inside a loop
// (a job that did not finish, a pass that found nothing) panics: the
// number would be of something else.
func runLayers(seed int64, loop time.Duration, rounds int, outDir string) (res map[string]float64, err error) {
	runtime.GOMAXPROCS(pinnedProcs)
	debug.SetGCPercent(pinnedGCPercent)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layers: %v", r)
		}
	}()
	l := &layerRun{loop: loop, rounds: rounds, seed: seed, dir: dir, out: make(map[string]float64)}
	l.simclock()
	l.vmslot()
	l.batch()
	l.siteAndGlidein()
	l.infosys()
	l.jdl()
	l.broker()
	l.workload()
	l.trace()
	l.small()
	l.sweeps()
	return l.out, nil
}

func (l *layerRun) simclock() {
	sim := simclock.NewSim(time.Time{})
	fired := 0
	fn := func() { fired++ }
	// 10k pending events, so every push and pop pays a real heap depth.
	for i := 0; i < 10000; i++ {
		sim.AfterFunc(100000*time.Hour+time.Duration(i)*time.Second, fn)
	}
	ns, allocs, _ := l.bench(func(n int) {
		inChunks(n, func(k int) {
			for i := 0; i < k; i++ {
				sim.AfterFunc(time.Duration(i+1)*time.Millisecond, fn)
			}
			sim.RunFor(2 * time.Second)
		})
	})
	l.out["simclock.afterfunc_dispatch_ns"], l.out["simclock.afterfunc_allocs"] = ns, allocs

	ns, _, _ = l.bench(func(n int) {
		inChunks(n, func(k int) {
			for i := 0; i < k; i++ {
				sim.Post(fn)
			}
			sim.RunFor(time.Millisecond)
		})
	})
	l.out["simclock.post_dispatch_ns"] = ns

	// Schedule, stop, and let the clock reap the cancelled event.
	timers := make([]simclock.Timer, chunk)
	ns, _, _ = l.bench(func(n int) {
		inChunks(n, func(k int) {
			for i := 0; i < k; i++ {
				timers[i] = sim.AfterFunc(time.Duration(i+1)*time.Millisecond, fn)
			}
			for i := 0; i < k; i++ {
				if !timers[i].Stop() {
					panic("timer fired before Stop")
				}
			}
			sim.RunFor(2 * time.Second)
		})
	})
	l.out["simclock.timer_stop_ns"] = ns

	// One trigger per lifecycle edge, one waiter: create, wait, fire,
	// dispatch the continuation.
	before := fired
	total := 0
	ns, allocs, _ = l.bench(func(n int) {
		total += n
		inChunks(n, func(k int) {
			for i := 0; i < k; i++ {
				t := sim.NewTrigger()
				t.WaitThen(fn)
				t.Fire()
			}
			sim.RunFor(time.Millisecond)
		})
	})
	if fired-before != total {
		panic(fmt.Sprintf("simclock: %d of %d trigger continuations ran", fired-before, total))
	}
	l.out["simclock.trigger_fire_ns"], l.out["simclock.trigger_allocs"] = ns, allocs
}

func (l *layerRun) vmslot() {
	sim := simclock.NewSim(time.Time{})
	// The paper's pair: an interactive VM and a batch VM left 10% of
	// the CPU, both busy, so the stretch is contended throughout.
	m := vmslot.NewMachine(sim)
	interactive, background := m.NewSlot("interactive-vm", 100), m.NewSlot("batch-vm", 10)
	ns, allocs, _ := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			a, b := interactive.Start(time.Second), background.Start(time.Second)
			sim.RunFor(5 * time.Second)
			if !a.Fired() || !b.Fired() {
				panic("vmslot: contended burst did not finish")
			}
		}
	})
	l.out["vmslot.burst_ns"], l.out["vmslot.burst_allocs"] = ns, allocs
}

func (l *layerRun) batch() {
	sim := simclock.NewSim(time.Time{})
	q := batch.NewQueue(sim, "lq", 16, nil, batch.WithCycle(5*time.Second))
	seq := 0
	submit := func(q *batch.Queue, nodes int, cpu time.Duration) *batch.Handle {
		seq++
		h, err := q.Submit(batch.Request{ID: "j" + strconv.Itoa(seq), Owner: "u", Nodes: nodes, RunCB: batch.FixedWorkCB(cpu)})
		must(err)
		return h
	}
	// Submit, the scheduling pass that starts the job, its fixed work
	// and the completion, sixteen at a time on sixteen nodes.
	ns, allocs, _ := l.bench(func(n int) {
		for n > 0 {
			k := min(n, 16)
			var last *batch.Handle
			for i := 0; i < k; i++ {
				last = submit(q, 1, time.Second)
			}
			sim.RunFor(10 * time.Second)
			if last.State() != batch.Completed {
				panic("batch: job did not finish: " + last.State().String())
			}
			n -= k
		}
	})
	l.out["batch.submit_start_ns"], l.out["batch.submit_start_allocs"] = ns, allocs

	// A full site with 1,000 jobs pending: one more submission, the
	// pass it triggers (which can start nothing), and its withdrawal.
	full := batch.NewQueue(sim, "full", 4, nil, batch.WithCycle(5*time.Second))
	submit(full, 4, 1000000*time.Hour)
	sim.RunFor(10 * time.Second)
	for i := 0; i < 1000; i++ {
		submit(full, 1, time.Second)
	}
	sim.RunFor(10 * time.Second)
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			h := submit(full, 1, time.Second)
			sim.RunFor(5 * time.Second)
			must(full.Kill(h.ID()))
		}
	})
	if full.QueueLength() != 1000 {
		panic(fmt.Sprintf("batch: backlog is %d, want 1000", full.QueueLength()))
	}
	l.out["batch.pass_backlog_ns"] = ns
}

func layerSite(sim *simclock.Sim, name string, nodes int) *site.Site {
	return site.New(sim, site.Config{
		Name: name, Nodes: nodes,
		Network:         netsim.CampusGrid(),
		Costs:           site.DefaultCosts(),
		LRMCycle:        5 * time.Second,
		PublishInterval: 1000000 * time.Hour,
	})
}

func (l *layerRun) siteAndGlidein() {
	sim := simclock.NewSim(time.Time{})
	st := layerSite(sim, "s", 16)
	seq := 0
	// The gatekeeper path: authentication, staging, GRAM, LRM enqueue,
	// two-phase commit, then the job runs and ends.
	ns, allocs, _ := l.bench(func(n int) {
		for n > 0 {
			k := min(n, 16)
			var last *batch.Handle
			for i := 0; i < k; i++ {
				seq++
				st.SubmitAsync(batch.Request{ID: "g" + strconv.Itoa(seq), Owner: "u", Nodes: 1, RunCB: batch.FixedWorkCB(time.Second)},
					site.SubmitOptions{}, func(h *batch.Handle, err error) {
						must(err)
						last = h
					})
			}
			sim.RunFor(5 * time.Minute)
			if last == nil || last.State() != batch.Completed {
				panic("site: submitted job did not finish")
			}
			n -= k
		}
	})
	l.out["site.submit_2pc_ns"], l.out["site.submit_2pc_allocs"] = ns, allocs

	answered := 0
	ns, _, _ = l.bench(func(n int) {
		inChunks(n, func(k int) {
			for i := 0; i < k; i++ {
				st.QueryStateAsync(func(free, queued int, ok bool) {
					if !ok {
						panic("site: probe failed")
					}
					answered++
				})
			}
			sim.RunFor(time.Minute)
		})
	})
	if answered == 0 {
		panic("site: no probe answered")
	}
	l.out["site.query_state_ns"] = ns

	// An agent with no batch payload: launch through the gatekeeper,
	// wait until its VMs exist, then make it leave.
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			var agent *glidein.Agent
			glidein.LaunchAsync(sim, st, nil, 0, glidein.Options{}, func(a *glidein.Agent, _ *batch.Handle, err error) {
				must(err)
				agent = a
			})
			sim.RunFor(5 * time.Minute)
			if agent == nil || !agent.Ready().Fired() {
				panic("glidein: agent not ready")
			}
			agent.Die()
			sim.RunFor(time.Minute)
		}
	})
	l.out["glidein.launch_ns"] = ns

	// One standing agent; an interactive job takes its VM, burns a
	// second of CPU and gives the VM back.
	var agent *glidein.Agent
	glidein.LaunchAsync(sim, st, &glidein.BatchPayload{ID: "payload", Owner: "u", Work: 1000000 * time.Hour}, 0, glidein.Options{},
		func(a *glidein.Agent, _ *batch.Handle, err error) {
			must(err)
			agent = a
		})
	sim.RunFor(5 * time.Minute)
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			seq++
			done, err := agent.StartInteractive(glidein.InteractiveJob{
				ID: "i" + strconv.Itoa(seq), Owner: "u", PerformanceLoss: 10,
				RunCB: func(ctx *glidein.InteractiveContext, fin func()) {
					ctx.Slot.Start(time.Second).WaitThen(fin)
				},
			})
			must(err)
			sim.RunFor(time.Minute)
			if !done.Fired() {
				panic("glidein: interactive job did not finish")
			}
		}
	})
	l.out["glidein.start_interactive_ns"] = ns
}

const layerRecords = 1000

func layerRecord(i, mem int) infosys.SiteRecord {
	return infosys.SiteRecord{
		Name: fmt.Sprintf("r%04d", i), TotalCPUs: 4, FreeCPUs: 4,
		Attrs: map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": mem},
	}
}

func (l *layerRun) infosys() {
	sim := simclock.NewSim(time.Time{})
	svc := infosys.NewSharded(sim, 500*time.Millisecond, churnShards)
	for i := 0; i < layerRecords; i++ {
		must(svc.Publish(layerRecord(i, 512+i)))
	}
	next := 0
	publish := func() {
		next++
		must(svc.Publish(layerRecord(next%layerRecords, 512+next%1024)))
	}
	ns, allocs, publishBytes := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			publish()
		}
	})
	l.out["infosys.publish_ns"], l.out["infosys.publish_allocs"] = ns, allocs

	walk := func() {
		seen := 0
		cur := svc.DiscoverImmediate(0)
		for {
			p, ok := cur.Next()
			if !ok {
				break
			}
			seen += p.Len()
		}
		if seen != layerRecords {
			panic(fmt.Sprintf("infosys: traversal saw %d records", seen))
		}
	}
	walk()
	// Clean: nothing was published since the last traversal, the shard
	// snapshots are reused. Dirty: publishes went in between (four per
	// shard, so that every shard has one), and every shard rebuilds its
	// snapshot; only the traversal is timed.
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			walk()
		}
	})
	l.out["infosys.discover_clean_ns_per_record"] = ns / layerRecords
	const dirtying = 4 * churnShards
	ns, _, b := l.benchPart(func(n int) (d time.Duration) {
		for i := 0; i < n; i++ {
			for s := 0; s < dirtying; s++ {
				publish()
			}
			t := cpuClock()
			walk()
			d += cpuClock() - t
		}
		return d
	})
	l.out["infosys.discover_dirty_ns_per_record"] = ns / layerRecords
	l.out["infosys.discover_dirty_bytes"] = b - dirtying*publishBytes

	// A subscriber on every shard that polls after each publish and is
	// never more than one delta behind.
	svc.SetDeltaLog(256)
	since := make([]uint64, svc.ShardCount())
	poll := func() (deltas int) {
		for s := range since {
			u := svc.SubscribeImmediate(s, since[s])
			since[s] = u.ToEpoch
			deltas += len(u.Deltas)
		}
		return deltas
	}
	poll()
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			publish()
			if poll() != 1 {
				panic("infosys: subscription missed a delta")
			}
		}
	})
	l.out["infosys.subscribe_delta_ns"] = ns - l.out["infosys.publish_ns"]
}

func (l *layerRun) jdl() {
	text := churnClassText(0, rand.New(rand.NewSource(l.seed)))
	ns, _, _ := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			_, err := jdl.ParseJob(text)
			must(err)
		}
	})
	l.out["jdl.parse_ns"] = ns

	job, err := jdl.ParseJob(text)
	must(err)
	rec := layerRecord(0, 2048)
	schema := infosys.NewSnapshot([]infosys.SiteRecord{rec}, nil).Schema()
	var req, rank *jdl.Compiled
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			req, rank = jdl.Compile(job.Requirements, schema), jdl.Compile(job.Rank, schema)
		}
	})
	l.out["jdl.compile_ns"] = ns

	vals := schema.Flatten(rec)
	ns, allocs, _ := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			ok, err := req.EvalBool(vals)
			must(err)
			if _, err := rank.EvalNumber(vals); err != nil || !ok {
				panic("jdl: compiled predicates rejected a matching record")
			}
		}
	})
	l.out["jdl.eval_ns"], l.out["jdl.eval_allocs"] = ns, allocs
}

// layerGrid is a grid as the replay sweep builds it: unsharded
// registry, the sweep's broker settings.
func layerGrid(sites, nodes int, seed int64) (*simclock.Sim, *broker.Broker) {
	sim := simclock.NewSim(time.Time{})
	b := sweepBroker(sim, infosys.New(sim, 500*time.Millisecond), nil, seed)
	for i := 0; i < sites; i++ {
		b.RegisterSite(site.New(sim, site.Config{
			Name: fmt.Sprintf("s%03d", i), Nodes: nodes,
			Network: netsim.CampusGrid(), Costs: site.DefaultCosts(), LRMCycle: 5 * time.Second,
			// One publish at registration, then none: the loops time a
			// pass or a job, not the sites' periodic pushes.
			PublishInterval: 1000000 * time.Hour,
			Attrs:           map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": 512 + i},
		}))
	}
	sim.RunFor(time.Minute)
	return sim, b
}

func (l *layerRun) broker() {
	plain := &jdl.Job{Executable: "bapp", NodeNumber: 1}
	withReq, err := jdl.ParseJob("Executable = \"p\"; JobType = \"batch\";\nRequirements = other.OS == \"linux\" && other.MemoryMB >= 600;\nRank = other.MemoryMB;\n")
	must(err)
	pass := func(sim *simclock.Sim, b *broker.Broker, job *jdl.Job, sites int) (ns, allocs float64) {
		ns, allocs, _ = l.bench(func(n int) {
			for i := 0; i < n; i++ {
				scanned := 0
				b.SelectionPassStatsAsync(job, func(ps broker.PassStats) { scanned = ps.Scanned })
				sim.RunFor(time.Minute)
				if scanned != sites {
					panic(fmt.Sprintf("broker: pass scanned %d of %d sites", scanned, sites))
				}
			}
		})
		return ns, allocs
	}
	sim80, b80 := layerGrid(80, 16, l.seed)
	ns, _ := pass(sim80, b80, plain, 80)
	l.out["broker.match_pass_us.sites80"] = ns / 1e3
	sim800, b800 := layerGrid(800, 16, l.seed)
	ns, allocs := pass(sim800, b800, plain, 800)
	l.out["broker.match_pass_us.sites800"], l.out["broker.match_allocs_per_pass.sites800"] = ns/1e3, allocs
	ns, _ = pass(sim800, b800, withReq, 800)
	l.out["broker.match_pass_req_us.sites800"] = ns / 1e3

	// The accept path alone: Submit returns before the clock moves. The
	// accepted jobs are then drained outside the timing.
	ns, _, _ = l.benchPart(func(n int) (accept time.Duration) {
		inChunks(n, func(k int) {
			t := cpuClock()
			for i := 0; i < k; i++ {
				_, err := b80.Submit(broker.Request{Job: &jdl.Job{Executable: "bapp", NodeNumber: 1}, User: "u", CPU: time.Second})
				must(err)
			}
			accept += cpuClock() - t
			sim80.RunFor(6 * time.Hour)
		})
		return accept
	})
	l.out["broker.submit_accept_ns"] = ns

	lifecycle := func(sim *simclock.Sim, b *broker.Broker, req func() broker.Request) float64 {
		ns, _, _ := l.bench(func(n int) {
			for i := 0; i < n; i++ {
				h, err := b.Submit(req())
				must(err)
				sim.RunFor(15 * time.Minute)
				if h.State() != broker.Done {
					panic(fmt.Sprintf("broker: job %v: %v", h.State(), h.Err()))
				}
			}
		})
		return ns / 1e3
	}
	sim, b := layerGrid(20, 4, l.seed)
	l.out["broker.lifecycle_us.batch"] = lifecycle(sim, b, func() broker.Request {
		return broker.Request{Job: &jdl.Job{Executable: "bapp", NodeNumber: 1}, User: "u", CPU: time.Second}
	})
	// Standing agents for the shared path: long batch jobs, each
	// submitted with its agent.
	for i := 0; i < 4; i++ {
		_, err := b.Submit(broker.Request{Job: &jdl.Job{Executable: "bg", NodeNumber: 1}, User: "owner", CPU: 1000000 * time.Hour})
		must(err)
	}
	sim.RunFor(10 * time.Minute)
	if b.FreeAgents() == 0 {
		panic("broker: no free agent for the shared path")
	}
	l.out["broker.lifecycle_us.interactive_shared"] = lifecycle(sim, b, func() broker.Request {
		return broker.Request{Job: &jdl.Job{Executable: "iapp", Interactive: true, NodeNumber: 1,
			Access: jdl.SharedAccess, PerformanceLoss: 10}, User: "u", CPU: time.Second}
	})
}

func (l *layerRun) workload() {
	const rows = 20000
	cfg := workload.SynthConfig{Jobs: rows, Seed: l.seed}
	ns, _, _ := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			must(workload.WriteSynthSWF(io.Discard, cfg))
		}
	})
	l.out["workload.synth_rows_per_s"] = rows * 1e9 / ns

	swfPath := filepath.Join(l.dir, "layer.swf")
	must(writeArchive(swfPath, cfg))
	gwfPath := filepath.Join(l.dir, "layer.gwf")
	must(writeGWF(gwfPath, rows, l.seed))
	for _, f := range []struct{ metric, path string }{
		{"workload.swf_records_per_s", swfPath},
		{"workload.gwf_records_per_s", gwfPath},
	} {
		ns, _, _ := l.bench(func(n int) {
			for i := 0; i < n; i++ {
				got, err := countArchive(f.path)
				must(err)
				if got != rows {
					panic(fmt.Sprintf("workload: %s has %d usable records", f.path, got))
				}
			}
		})
		l.out[f.metric] = rows * 1e9 / ns
	}

	// The replay stream as the sweep consumes it: one Next per job.
	ns, allocs, _ := l.bench(func(n int) {
		for n > 0 {
			tr, err := workload.OpenTraceReader(swfPath, workload.TraceReaderOptions{})
			must(err)
			st, err := workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: 1})
			must(err)
			k := min(n, rows)
			for i := 0; i < k; i++ {
				if _, _, ok := st.Next(); !ok {
					panic("workload: stream ended early")
				}
			}
			must(st.Close())
			n -= k
		}
	})
	l.out["workload.stream_next_ns"], l.out["workload.stream_next_allocs"] = ns, allocs
}

// writeGWF generates a Grid Workloads Format archive with the same job
// mix as the synthetic SWF generator.
func writeGWF(path string, rows int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	t := &gwf.Trace{Records: make([]gwf.Record, rows)}
	for i := range t.Records {
		runtime := int64(30 + rng.Intn(271))
		if rng.Intn(100) >= 72 {
			runtime = int64(300 + rng.Intn(1501))
		}
		procs := int64(1 + rng.Intn(3))
		t.Records[i] = gwf.Record{
			JobID: int64(i + 1), Submit: int64(i) * 86400 / int64(rows), Wait: gwf.Missing,
			Runtime: runtime, Procs: procs, AvgCPU: gwf.Missing, UsedMem: gwf.Missing,
			ReqProcs: procs, ReqTime: runtime + runtime/4, ReqMem: gwf.Missing, Status: 1,
			User: int64(1 + rng.Intn(50)), Group: 1, Executable: gwf.Missing, Queue: gwf.Missing,
			Partition: gwf.Missing, OrigSite: gwf.Missing, LastRunSite: gwf.Missing,
			UsedNetwork: gwf.Missing, UsedDisk: gwf.Missing, ReqNetwork: gwf.Missing, ReqDisk: gwf.Missing,
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gwf.Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *layerRun) trace() {
	sim := simclock.NewSim(time.Time{})
	ev := trace.Event{Kind: trace.Matched, Job: "cb-000001", Site: "s01", Rank: 3}
	ns, _, _ := l.bench(func(n int) {
		inChunks(n, func(k int) {
			tr := trace.New(sim.Now)
			for i := 0; i < k; i++ {
				tr.Emit(ev)
			}
		})
	})
	l.out["trace.emit_ns"] = ns
	// Tracing off is a nil tracer: what every instrumented path pays
	// on the untraced runs.
	var off *trace.Tracer
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			off.Emit(ev)
		}
	})
	l.out["trace.emit_disabled_ns"] = ns

	// A real event log to export and check: a small traced replay.
	path := filepath.Join(l.dir, "trace.swf")
	must(writeArchive(path, workload.SynthConfig{Jobs: 2000, Seed: l.seed}))
	pts, err := experiments.ReplaySweep(experiments.ReplayConfig{
		Sites: 8, NodesPerSite: 16, Speedups: []float64{1}, Seed: l.seed, Workers: 1, Traced: true,
		Source: func(speedup float64) (workload.ReplayStream, error) {
			tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
			if err != nil {
				return nil, err
			}
			return workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: speedup})
		},
	})
	must(err)
	log := []trace.Trace{pts[0].Trace}
	events := float64(len(log[0].Events))
	var buf bytes.Buffer
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			must(trace.WriteJSONL(&buf, log))
		}
	})
	l.out["trace.jsonl_events_per_s"] = events * 1e9 / ns
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			if v := trace.CheckComplete(log[0].Events); len(v) != 0 {
				panic("trace: " + v[0].String())
			}
		}
	})
	l.out["trace.check_events_per_s"] = events * 1e9 / ns
}

// small holds the layers no end-to-end workload runs.
func (l *layerRun) small() {
	links := datacat.NewLinks(netsim.WideArea())
	links.SetBoth("s00", "s01", netsim.CampusGrid())
	cat := datacat.New(links)
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("dataset-%d", i)
		must(cat.AddReplica(names[i], int64(1+i)<<30, fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d", i+4)))
	}
	ns, _, _ := l.bench(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cat.StagingTime("s01", names); !ok {
				panic("datacat: dataset unobtainable")
			}
		}
	})
	l.out["datacat.staging_time_ns"] = ns

	sim := simclock.NewSim(time.Time{})
	fair := fairshare.New(sim, fairshare.Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
	fair.SetTotal(1000)
	for i := 0; i < 50; i++ {
		must(fair.Allocate("job"+strconv.Itoa(i), "user"+strconv.Itoa(i), 1+i%4, fairshare.BatchClass, 0))
	}
	ns, _, _ = l.bench(func(n int) {
		for i := 0; i < n; i++ {
			fair.Tick()
		}
	})
	l.out["fairshare.update_ns"] = ns
}

// sweeps times one default sweep of each experiment that exercises a
// layer the workloads leave alone: regression guards for the planned
// deletions in those layers.
func (l *layerRun) sweeps() {
	for _, s := range []struct {
		metric string
		run    func() error
	}{
		{"faultinject.chaos_sweep_ms", func() error {
			_, err := experiments.ChaosSweep(experiments.ChaosConfig{Seed: l.seed, Workers: 1})
			return err
		}},
		{"federation.sweep_ms", func() error {
			_, err := experiments.FederationSweep(experiments.FederationConfig{Seed: l.seed, Workers: 1})
			return err
		}},
		{"datacat.dataaware_sweep_ms", func() error {
			_, err := experiments.DataAwareSweep(experiments.DataAwareConfig{Seed: l.seed, Workers: 1})
			return err
		}},
	} {
		ns, _, _ := l.bench(func(n int) {
			for i := 0; i < n; i++ {
				must(s.run())
			}
		})
		l.out[s.metric] = ns / 1e6
	}
}
