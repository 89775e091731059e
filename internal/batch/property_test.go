package batch

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
			warmWindow: time.Duration(10+rng.Intn(110)) * time.Second,
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
				prov, idle := len(q.nodes), 0
				for _, n := range q.nodes {
					if n.holder == nil {
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
						if _, ok := q.jobs[h.ID()]; ok {
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
			if sup.name == "elastic" && (len(q.nodes) != 0 || len(q.idleAt) != 0) {
				fail("%d nodes (%d idle stamps) left after the warm window", len(q.nodes), len(q.idleAt))
			}
			if q.FreeNodeCount() != nodes {
				fail("FreeNodeCount = %d after the drain, want %d", q.FreeNodeCount(), nodes)
			}
		}
	}
}

// TestPassOrderMatchesFullSort drives a queue through seeded random
// submissions at a few priority levels, kills of pending jobs, passes
// and crashes, and holds pending to a reference that sorts all of it
// at every pass: after a pass the jobs it started are the head of the
// full sort and the rest are its tail; between passes pending is the
// sorted remainder followed by the arrivals in submission order; and
// CrashAll drops the pending jobs in that order.
func TestPassOrderMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := simclock.NewSim(time.Time{})
		q := NewQueue(sim, "order", 3, nil, WithCycle(time.Second))
		var ref, dropped []*Handle
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d op %d: "+format, append([]any{seed, op}, args...)...)
		}
		same := func(op int, what string, got, want []*Handle) {
			t.Helper()
			if !slices.Equal(got, want) {
				fail(op, "%s: pending %v, want %v", what, ids(got), ids(want))
			}
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				h, err := q.Submit(Request{
					ID:       fmt.Sprintf("j%d", op),
					Nodes:    1 + rng.Intn(3),
					Priority: rng.Intn(3) * 5,
					RunCB:    func(_ *ExecCtx, done func()) { done() },
				})
				if err != nil {
					fail(op, "submit: %v", err)
				}
				h.Done.OnFire(func() {
					if h.State() == Killed {
						dropped = append(dropped, h)
					}
				})
				ref = append(ref, h)
			case r < 7 && len(ref) > 0:
				h := ref[rng.Intn(len(ref))]
				if err := q.Kill(h.ID()); err != nil {
					fail(op, "kill: %v", err)
				}
				ref = slices.DeleteFunc(ref, func(p *Handle) bool { return p == h })
			case r < 9:
				want := slices.Clone(ref)
				slices.SortFunc(want, func(a, b *Handle) int {
					if a.req.Priority != b.req.Priority {
						return b.req.Priority - a.req.Priority
					}
					return a.seq - b.seq
				})
				q.pass()
				k := len(want) - len(q.pending)
				for _, h := range want[:k] {
					if h.State() != Running {
						fail(op, "pass started %v, want the head %v of the full sort", ids(want[:k]), ids(want))
					}
				}
				ref = want[k:]
				same(op, "after pass", q.pending, ref)
				if rng.Intn(2) == 0 {
					sim.RunUntil(sim.Now()) // the started bodies end and free their nodes
				}
			default:
				dropped = dropped[:0]
				q.CrashAll()
				same(op, "crash drop order", dropped, ref)
				ref = ref[:0]
				sim.RunUntil(sim.Now())
			}
			same(op, "between passes", q.pending, ref)
		}
	}
}

func ids(hs []*Handle) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = fmt.Sprintf("%s/p%d", h.ID(), h.req.Priority)
	}
	return out
}
