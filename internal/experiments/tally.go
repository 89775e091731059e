package experiments

import (
	"errors"
	"fmt"

	"crossbroker/internal/broker"
	"crossbroker/internal/metrics"
	"crossbroker/internal/site"
)

// tally is the one account of how a run's jobs ended: every driver
// feeds it the handles it submitted instead of deciding for itself
// what counts as done, failed or still pending. A job that is not
// terminal is pending and never counts as failed.
type tally struct {
	// Done, Failed and Pending partition the jobs added.
	Done, Failed, Pending int
	// FailedBy splits Failed by the reason a job's error names (see
	// failureReasons); nil while nothing failed.
	FailedBy map[string]int
	// Resubmissions sums every added job's resubmissions.
	Resubmissions int
	// SharedPlacements counts done interactive jobs that ran on an
	// interactive VM.
	SharedPlacements int

	// startup holds the submission phase of done interactive jobs,
	// turnaround the turnaround of done batch jobs and recovery that
	// of done jobs of either kind that were resubmitted.
	startup, turnaround, recovery metrics.Series
}

// add classifies one job. A nil handle (a federated job between
// brokers) is pending.
func (t *tally) add(h *broker.Handle) {
	if h == nil {
		t.Pending++
		return
	}
	t.Resubmissions += h.Resubmissions()
	switch h.State() {
	case broker.Done:
		t.Done++
		if h.Request().Job.Interactive {
			t.startup.AddDuration(h.Phases.Submission)
			if h.Shared() {
				t.SharedPlacements++
			}
		} else {
			t.turnaround.AddDuration(h.Turnaround())
		}
		if h.Resubmissions() > 0 {
			t.recovery.AddDuration(h.Turnaround())
		}
	case broker.Failed:
		t.Failed++
		if t.FailedBy == nil {
			t.FailedBy = make(map[string]int)
		}
		t.FailedBy[failureReason(h.Err())]++
	default:
		t.Pending++
	}
}

// failureReasons names the broker's and the site's failure sentinels.
// A failed job takes the first one its error wraps: ErrMaxResubmits
// leads because it carries the last attempt's cause.
var failureReasons = []struct {
	err  error
	name string
}{
	{broker.ErrMaxResubmits, "max-resubmits"},
	{broker.ErrNoResources, "no-resources"},
	{broker.ErrNoMatch, "no-match"},
	{broker.ErrAborted, "aborted"},
	{broker.ErrSiteLost, "site-lost"},
	{broker.ErrAgentLost, "agent-lost"},
	{site.ErrSiteDown, "site-down"},
	{site.ErrCommitAborted, "commit-aborted"},
	{site.ErrGatekeeperTimeout, "gatekeeper-timeout"},
}

// failureReason names err by the first sentinel it wraps, or "other".
func failureReason(err error) string {
	for _, r := range failureReasons {
		if errors.Is(err, r.err) {
			return r.name
		}
	}
	return "other"
}

// tallyOf adds every handle to a fresh tally.
func tallyOf(hs []*broker.Handle) *tally {
	t := new(tally)
	for _, h := range hs {
		t.add(h)
	}
	return t
}

// pendingErr reports the jobs still pending, for a driver that runs
// every job to the end.
func (t *tally) pendingErr() error {
	if t.Pending == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d jobs never reached a terminal state", t.Pending, t.Done+t.Failed+t.Pending)
}

// tallySummary reduces a tally to the paper's Table I metrics.
// GoodputPct is Done over every job added, in percent; Startup,
// Turnaround and Recovery summarize the tally's series, in seconds.
type tallySummary struct {
	GoodputPct                    float64
	Startup, Turnaround, Recovery metrics.Summary
}

// summary reduces the tally.
func (t *tally) summary() tallySummary {
	s := tallySummary{Startup: t.startup.Summarize(), Turnaround: t.turnaround.Summarize(),
		Recovery: t.recovery.Summarize()}
	if n := t.Done + t.Failed + t.Pending; n > 0 {
		s.GoodputPct = 100 * float64(t.Done) / float64(n)
	}
	return s
}
