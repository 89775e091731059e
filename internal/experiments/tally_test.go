package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/jdl"
	"crossbroker/internal/site"
)

// tallyJob runs one job on a fresh idle grid for d and returns its
// handle; a non-nil abort kills the job at submission with that
// reason.
func tallyJob(t *testing.T, job *jdl.Job, cpu time.Duration, abort error, d time.Duration) *broker.Handle {
	t.Helper()
	sys := core.NewSystem(core.SystemConfig{Sites: []core.SiteSpec{{
		NameFormat: "s%02d", Count: 2, Nodes: 2, LRMCycle: 2 * time.Second,
	}}})
	h, err := sys.Submit(broker.Request{Job: job, User: "u", CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	if abort != nil {
		sys.Broker.Abort(h, abort)
	}
	sys.Run(d)
	return h
}

// TestTally feeds the tally one job per case and checks where it
// lands: done jobs feed the startup or turnaround series by kind, a
// job that is not terminal, or has no handle, is pending and never
// failed, and a failed job counts under the first sentinel its error
// wraps.
func TestTally(t *testing.T) {
	shared := func() *jdl.Job {
		return &jdl.Job{Executable: "i", Interactive: true, NodeNumber: 1, Access: jdl.SharedAccess, PerformanceLoss: 10}
	}
	batch := func() *jdl.Job { return &jdl.Job{Executable: "b", NodeNumber: 1} }
	type want struct {
		done, failed, pending, shared, startups, turnarounds int
		reason                                               string
	}
	fails := []struct {
		err    error
		reason string
	}{
		// The broker's real error keeps the last cause as text only; a
		// wrapped one must still count as the exhausted budget.
		{fmt.Errorf("%w: %w", broker.ErrMaxResubmits, site.ErrSiteDown), "max-resubmits"},
		{broker.ErrNoResources, "no-resources"},
		{broker.ErrNoMatch, "no-match"},
		{broker.ErrAborted, "aborted"},
		{broker.ErrSiteLost, "site-lost"},
		{broker.ErrAgentLost, "agent-lost"},
		{site.ErrSiteDown, "site-down"},
		{site.ErrCommitAborted, "commit-aborted"},
		{site.ErrGatekeeperTimeout, "gatekeeper-timeout"},
		{errors.New("operator gave up"), "other"},
	}
	type tallyCase struct {
		name string
		h    func(t *testing.T) *broker.Handle
		want want
	}
	cases := []tallyCase{
		{"done interactive on a shared VM", func(t *testing.T) *broker.Handle {
			return tallyJob(t, shared(), time.Minute, nil, 30*time.Minute)
		}, want{done: 1, shared: 1, startups: 1}},
		{"done batch", func(t *testing.T) *broker.Handle {
			return tallyJob(t, batch(), 10*time.Minute, nil, time.Hour)
		}, want{done: 1, turnarounds: 1}},
		{"running", func(t *testing.T) *broker.Handle {
			return tallyJob(t, batch(), 10*time.Hour, nil, time.Hour)
		}, want{pending: 1}},
		{"nil handle", func(*testing.T) *broker.Handle { return nil }, want{pending: 1}},
	}
	for _, f := range fails {
		cases = append(cases, tallyCase{f.reason, func(t *testing.T) *broker.Handle {
			return tallyJob(t, batch(), time.Minute, fmt.Errorf("wrapped: %w", f.err), time.Hour)
		}, want{failed: 1, reason: f.reason}})
	}
	var all tally
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h(t)
			var one tally
			one.add(h)
			all.add(h)
			s := one.summary()
			got := want{one.Done, one.Failed, one.Pending, one.SharedPlacements, s.Startup.N, s.Turnaround.N, ""}
			for reason := range one.FailedBy {
				got.reason = reason
			}
			if got != tc.want {
				t.Fatalf("tally %+v, want %+v (state %v, err %v)", got, tc.want, h.State(), h.Err())
			}
		})
	}
	jobs := 4 + len(fails)
	if g, w := all.summary().GoodputPct, 100*2/float64(jobs); g != w {
		t.Fatalf("goodput %.1f%%, want %.1f%% (2 done of %d)", g, w, jobs)
	}
	if err := all.pendingErr(); err == nil || err.Error() != fmt.Sprintf("2 of %d jobs never reached a terminal state", jobs) {
		t.Fatalf("pendingErr = %v", err)
	}
	sum := 0
	for _, n := range all.FailedBy {
		sum += n
	}
	if sum != all.Failed || len(all.FailedBy) != len(fails) {
		t.Fatalf("FailedBy %v does not split %d failures %d ways", all.FailedBy, all.Failed, len(fails))
	}
}
