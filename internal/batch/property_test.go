package batch

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// supplies are the two node supplies every queue contract must hold
// on: a fixed pool of n nodes, and an elastic queue bounded at n with
// a seeded cold start, jitter and warm window drawn from rng.
var supplies = []struct {
	name string
	new  func(sim *simclock.Sim, n int, rng *rand.Rand) *Queue
}{
	{"fixed", func(sim *simclock.Sim, n int, _ *rand.Rand) *Queue {
		return NewQueue(sim, "prop", n, nil, WithCycle(time.Second))
	}},
	{"elastic", func(sim *simclock.Sim, n int, rng *rand.Rand) *Queue {
		return NewPool(sim, "prop", ElasticConfig{
			MaxNodes:        n,
			ColdStart:       time.Duration(5+rng.Intn(25)) * time.Second,
			ColdStartJitter: time.Duration(rng.Intn(10)) * time.Second,
			// Some windows close before a job on a reused node ends.
			WarmWindow: time.Duration(10+rng.Intn(110)) * time.Second,
			Seed:       rng.Int63(),
		}, nil, WithCycle(time.Second))
	}},
}

// TestQueueInvariantsUnderRandomLoad submits a random job stream, with
// random kills and one CrashAll in mid-stream, to each node supply and
// checks the LRM's structural invariants:
//   - a node never hosts two jobs at once, and jobs get exactly the
//     node count they asked for;
//   - provisioned nodes never exceed the capacity bound, and the free
//     count matches the nodes nobody holds;
//   - every job reaches a terminal state exactly once, and the queue
//     forgets it as it does (Lookup fails from Done on, and the queue
//     holds no job once the stream drains);
//   - FCFS order holds within a priority level (no backfill);
//   - an elastic queue reclaims every node once its warm window passes.
func TestQueueInvariantsUnderRandomLoad(t *testing.T) {
	for _, sup := range supplies {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sim := simclock.NewSim(time.Time{})
			nodes := 2 + rng.Intn(4)
			q := sup.new(sim, nodes, rng)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s seed %d: "+format, append([]any{sup.name, seed}, args...)...)
			}

			type jobInfo struct {
				h             *Handle
				nodes, prio   int
				order         int // submission order
				afterCrash    bool
				killTarget    bool
				starts, dones int
				started       time.Time
				doneState     State
			}
			var jobs []*jobInfo
			held := make(map[*Node]*jobInfo)

			// A watchdog samples provisioning and free counts every 500ms.
			var watch func()
			watch = func() {
				prov, idle := len(q.Nodes()), 0
				for _, n := range q.Nodes() {
					if !n.Busy() {
						idle++
					}
				}
				if prov > q.TotalCPUs() {
					fail("%d nodes provisioned over a bound of %d", prov, q.TotalCPUs())
				}
				if got := q.FreeNodeCount() - (q.TotalCPUs() - prov); got != idle {
					fail("at %v: %d free provisioned nodes counted, %d idle", sim.Now(), got, idle)
				}
				sim.AfterFunc(500*time.Millisecond, watch)
			}
			sim.AfterFunc(0, watch)

			crashAt := time.Duration(10+rng.Intn(40))*time.Second + 500*time.Millisecond
			crashed := false
			sim.AfterFunc(crashAt, func() { crashed = true; q.CrashAll() })

			submitted := 0
			nJobs := 10 + rng.Intn(15)
			for i := 0; i < nJobs; i++ {
				info := &jobInfo{nodes: 1 + rng.Intn(nodes), prio: rng.Intn(2), killTarget: rng.Intn(6) == 0}
				dur := time.Duration(1+rng.Intn(30)) * time.Second
				delay := time.Duration(rng.Intn(90)) * time.Second
				killAfter := time.Duration(rng.Intn(40)) * time.Second
				sim.AfterFunc(delay, func() {
					h, err := q.Submit(Request{
						Nodes:    info.nodes,
						Priority: info.prio,
						RunCB: func(ctx *ExecCtx, done func()) {
							info.starts++
							info.started = sim.Now()
							if len(ctx.Nodes) != info.nodes {
								fail("job got %d nodes, want %d", len(ctx.Nodes), info.nodes)
							}
							for _, n := range ctx.Nodes {
								if other := held[n]; other != nil {
									fail("node %s held by jobs %d and %d", n.Name, other.order, info.order)
								}
								held[n] = info
							}
							sleepOrKilled(ctx, dur, func(bool) {
								for _, n := range ctx.Nodes {
									if held[n] == info {
										delete(held, n)
									}
								}
								done()
							})
						},
					})
					if err != nil {
						fail("submit: %v", err)
						return
					}
					info.h, info.order, info.afterCrash = h, submitted, crashed
					submitted++
					h.Done.OnFire(func() {
						info.dones++
						info.doneState = h.State()
						if _, ok := q.Lookup(h.ID()); ok {
							fail("job %d still known to the queue at Done", info.order)
						}
					})
					if info.killTarget {
						sim.AfterFunc(killAfter, func() {
							if err := q.Kill(h.ID()); err != nil && !(errors.Is(err, ErrUnknownJob) && h.Done.Fired()) {
								fail("kill job %d: %v", info.order, err)
							}
						})
					}
				})
				jobs = append(jobs, info)
			}
			sim.RunFor(2 * time.Hour)

			for i, j := range jobs {
				if j.h == nil {
					t.Fatalf("%s seed %d: job %d never submitted", sup.name, seed, i)
				}
				st := j.h.State()
				if j.dones != 1 || (st != Completed && st != Killed) || st != j.doneState || j.starts > 1 {
					fail("job %d: state %v, Done seen %d times in state %v, started %d times", j.order, st, j.dones, j.doneState, j.starts)
				}
				if j.afterCrash && !j.killTarget && st != Completed {
					fail("job %d submitted after the crash ended %v", j.order, st)
				}
				for _, k := range jobs {
					if j.prio == k.prio && j.order < k.order && j.starts == 1 && k.starts == 1 && j.started.After(k.started) {
						fail("job %d started after later job %d of the same priority", j.order, k.order)
					}
				}
			}
			if len(q.jobs) != 0 {
				fail("queue still holds %d jobs after the drain", len(q.jobs))
			}
			if sup.name == "elastic" && (len(q.Nodes()) != 0 || len(q.idleAt) != 0) {
				fail("%d nodes (%d idle stamps) left after the warm window", len(q.Nodes()), len(q.idleAt))
			}
			if q.FreeNodeCount() != nodes {
				fail("FreeNodeCount = %d after the drain, want %d", q.FreeNodeCount(), nodes)
			}
		}
	}
}
