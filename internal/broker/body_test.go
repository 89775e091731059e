package broker

// Fault tests of a custom job Body: a chain of continuations started
// inside the flow's own event (RunContext.run) and torn down from
// outside it.

import (
	"bytes"
	"testing"
	"time"

	"crossbroker/internal/jdl"
	"crossbroker/internal/trace"
)

// bodySleep waits d in a body, or less if its allocation is torn down
// first, then runs then with whether it was.
func bodySleep(rc *RunContext, d time.Duration, then func(killed bool)) {
	w := rc.Sim.NewTrigger()
	timer := rc.Sim.AfterFunc(d, w.Fire)
	w.WaitAny(func() {
		timer.Stop()
		then(rc.Killed.Fired())
	}, rc.Killed)
}

// runBodyFaults drives the mixed workload once and returns its event
// log plus each job's handle, keyed by a short name.
func runBodyFaults(t *testing.T) ([]byte, map[string]*Handle, map[string]int) {
	t.Helper()
	g, tr := tracedGrid(t, 4, 2, Config{Seed: 11, MaxResubmits: 5})
	sim := g.sim
	siteByName := func(name string) int {
		for i, st := range g.sites {
			if st.Name() == name {
				return i
			}
		}
		t.Fatalf("job ran on unknown site %q", name)
		return -1
	}

	handles := map[string]*Handle{}
	starts := map[string]int{} // body entries per job, resubmissions included
	// body is a conversational job: first output, one round of input,
	// a long think time, a CPU burst, a last output. fault, if set, is
	// armed the first time the body reaches its think time and strikes
	// five seconds into it.
	body := func(name string, fault func(h *Handle)) Body {
		return func(rc *RunContext, done func()) {
			starts[name]++
			rc.Output(4<<10, func() {
				rc.input(256, func() {
					if fault != nil {
						f := fault
						fault = nil
						rc.Sim.AfterFunc(5*time.Second, func() { f(handles[name]) })
					}
					bodySleep(rc, 2*time.Minute, func(killed bool) {
						if killed {
							done()
							return
						}
						rc.Slots[0].Start(3 * time.Second).WaitThen(func() { rc.Output(512, done) })
					})
				})
			})
		}
	}
	submit := func(name string, req Request) {
		h, err := g.b.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		handles[name] = h
	}
	withBody := func(req Request, b Body) Request { req.Body = b; return req }
	parallelBatch := Request{Job: &jdl.Job{Executable: "mpi", NodeNumber: 2, Flavor: jdl.MPICHP4}, User: "batchuser", CPU: time.Minute}

	// Default-body jobs of all three scenarios run beside the custom ones.
	submit("batch-default", batchJob(10*time.Minute))
	sim.RunFor(time.Minute)
	submit("shared-default", interactiveJob(jdl.SharedAccess, 10, 1))
	submit("exclusive-default", interactiveJob(jdl.ExclusiveAccess, 0, 1))
	sim.RunFor(10 * time.Second)
	submit("shared-ok", withBody(interactiveJob(jdl.SharedAccess, 10, 1), body("shared-ok", nil)))
	sim.RunFor(10 * time.Second)
	submit("exclusive-abort", withBody(interactiveJob(jdl.ExclusiveAccess, 0, 1),
		body("exclusive-abort", func(h *Handle) { g.b.Abort(h, nil) })))
	sim.RunFor(10 * time.Second)
	submit("exclusive-crash", withBody(interactiveJob(jdl.ExclusiveAccess, 0, 1),
		body("exclusive-crash", func(h *Handle) {
			st := g.sites[siteByName(h.Site())]
			st.Crash()
			sim.AfterFunc(3*time.Minute, st.Restart)
		})))
	sim.RunFor(10 * time.Second)
	submit("shared-agentdeath", withBody(interactiveJob(jdl.SharedAccess, 10, 1),
		body("shared-agentdeath", func(h *Handle) {
			if !g.b.KillAgentAt(h.Site()) {
				t.Errorf("no agent to kill on %s", h.Site())
			}
		})))
	sim.RunFor(10 * time.Second)
	// The LRM kills the gatekeeper job (named after the broker job's
	// first attempt) while the body sleeps. The retry is free to pick
	// the same site again.
	submit("parallel-lrmkill", withBody(parallelBatch,
		body("parallel-lrmkill", func(h *Handle) {
			if err := g.sites[siteByName(h.Site())].Queue().Kill(h.ID + ".0"); err != nil {
				t.Errorf("LRM kill: %v", err)
			}
		})))

	sim.RunFor(2 * time.Hour)

	if n := g.b.LeasedCPUs(); n != 0 {
		t.Errorf("%d leases leaked", n)
	}
	if n := g.b.PendingBatch(); n != 0 {
		t.Errorf("%d jobs still queued in the broker", n)
	}
	events := tr.Snapshot("").Events
	if v := trace.CheckComplete(events); len(v) != 0 {
		t.Errorf("trace invariant violations: %v", v)
	}
	terminal := map[string]int{}
	for _, e := range events {
		if e.Kind == trace.Done || e.Kind == trace.Failed || e.Kind == trace.Aborted {
			terminal[e.Job]++
		}
	}
	for name, h := range handles {
		if terminal[h.ID] != 1 || !h.Done.Fired() {
			t.Errorf("%s: %d terminal events, Done fired = %v, state %v", name, terminal[h.ID], h.Done.Fired(), h.State())
		}
	}
	var log bytes.Buffer
	if err := trace.WriteJSONL(&log, []trace.Trace{{Label: "bodies", Events: events}}); err != nil {
		t.Fatal(err)
	}
	return log.Bytes(), handles, starts
}

// TestBlockingBodiesUnderFaults runs custom bodies (waits chained as
// continuations) and default bodies side by side through all three
// scenarios while every way of tearing a body down strikes one of them
// mid-wait: an abort, a site crash, the hosting agent's death, an LRM
// kill.
func TestBlockingBodiesUnderFaults(t *testing.T) {
	log, handles, starts := runBodyFaults(t)

	for _, name := range []string{"shared-default", "exclusive-default", "shared-ok"} {
		if h := handles[name]; h.State() != Done || h.Resubmissions() != 0 {
			t.Errorf("%s: state %v after %d resubmissions (%v), want a clean run", name, h.State(), h.Resubmissions(), h.Err())
		}
	}
	// The batch job's own agent may be the one that is killed under the
	// shared job it hosts; the payload is then resubmitted.
	if h := handles["batch-default"]; h.State() != Done {
		t.Errorf("batch-default: state %v (%v), want Done", h.State(), h.Err())
	}
	if h := handles["exclusive-abort"]; h.State() != Failed || h.Err() != ErrAborted {
		t.Errorf("exclusive-abort: state %v err %v, want Failed/ErrAborted", h.State(), h.Err())
	}
	// Each recoverable fault costs exactly one resubmission, after which
	// the body runs again from the top and completes.
	for _, name := range []string{"exclusive-crash", "shared-agentdeath", "parallel-lrmkill"} {
		h := handles[name]
		if h.State() != Done || h.Resubmissions() != 1 || starts[name] != 2 {
			t.Errorf("%s: state %v, %d resubmissions, body entered %d times (%v); want Done, 1, 2",
				name, h.State(), h.Resubmissions(), starts[name], h.Err())
		}
	}
	for _, name := range []string{"shared-ok", "exclusive-abort"} {
		if starts[name] != 1 {
			t.Errorf("%s: body entered %d times, want 1", name, starts[name])
		}
	}

	again, _, _ := runBodyFaults(t)
	if !bytes.Equal(log, again) {
		t.Error("second run's event log differs from the first")
	}
}
