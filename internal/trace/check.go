package trace

import (
	"fmt"
	"sort"
	"time"
)

// Violation is one invariant breach found by Check.
type Violation struct {
	// Seq is the offending event's sequence number (the last event of
	// the trace for end-of-trace violations).
	Seq uint64
	// Job is the affected job ("" for site-scoped breaches).
	Job string
	// Msg describes the breach.
	Msg string
}

// String formats the violation.
func (v Violation) String() string {
	if v.Job == "" {
		return fmt.Sprintf("seq %d: %s", v.Seq, v.Msg)
	}
	return fmt.Sprintf("seq %d job %s: %s", v.Seq, v.Job, v.Msg)
}

// leaseKey identifies one job's holdings on one site.
type leaseKey struct{ job, site string }

// attemptKey identifies one submission attempt of one job.
type attemptKey struct {
	job     string
	attempt int
}

// Check verifies the structural invariants of an event log and returns
// every breach found (nil when the trace is clean):
//
//  1. Lease balance — per (job, site), CPUs released never exceed CPUs
//     acquired, unless a LeaseDropped on the site forgave the holding
//     (site death: the broker's deferred release then finds nothing to
//     undo). At end of trace no unforgiven holding remains (the leaked
//     -lease invariant, now checkable from the log alone).
//  2. Terminal finality — after a job's first terminal event (Done,
//     Failed, Aborted) no further lifecycle event mentions the job.
//     Lease bookkeeping is exempt: the broker's deferred releases run
//     after the failure handler by design.
//  3. Resubmit monotonicity — a job's Resubmitted attempt indices are
//     strictly increasing.
//  4. Two-phase commit — per (job, attempt): at most one CommitSent;
//     Committed or CommitAborted only after CommitSent; never both,
//     and in particular Committed never follows CommitAborted.
//  5. At-most-once execution — per (job, attempt), at most one Started
//     event. In a merged multi-broker log a duplicate means two brokers
//     ran the same attempt of the same job: a double allocation the
//     federation's transfer protocol must make impossible.
//  6. Offload pairing — per job, at most one transfer lease outstanding
//     at a time: OffloadSent while a previous transfer is unresolved,
//     or OffloadAccepted without an outstanding OffloadSent, is a
//     breach. OffloadOrphaned resolves an outstanding transfer (it is
//     also legal after acceptance: the origin reclaiming from a dead
//     peer).
//  7. Delta freshness — a Matched event carrying an Epoch (the
//     incremental matchmaking path) was decided at poll time
//     T - Dur. If an infosys partition healed at or before that poll
//     (heal time = FaultInjected.T + Dur for "infosys-partition
//     injected" events), the deciding poll must have caught up to every
//     delta published up to the heal: Matched.Epoch must be at least
//     the largest DeltaPublished.Epoch with timestamp ≤ heal time. A
//     smaller epoch means a job was matched against a registry state
//     staler than the healed partition allows.
//
// Invariants 1, 5 and 6 are meaningful across brokers: run Check over
// MergeByTime of every broker's log to verify a federation grid-wide.
// Invariant 7 assumes a single information service per log (global
// epochs from different services are not comparable).
func Check(events []Event) []Violation {
	var out []Violation
	violate := func(seq uint64, job, format string, args ...any) {
		out = append(out, Violation{Seq: seq, Job: job, Msg: fmt.Sprintf(format, args...)})
	}

	held := make(map[leaseKey]int)     // live CPUs per (job, site)
	forgiven := make(map[leaseKey]int) // dropped by site death, release still expected
	terminal := make(map[string]Kind)  // job -> terminal kind seen
	lastResub := make(map[string]int)  // job -> last attempt index
	commits := make(map[attemptKey]Kind)
	started := make(map[attemptKey]bool) // (job, attempt) -> Started seen
	offload := make(map[string]bool)     // job -> transfer lease outstanding

	for _, e := range events {
		if e.Job != "" && e.Kind.lifecycle() {
			if k, dead := terminal[e.Job]; dead {
				violate(e.Seq, e.Job, "%s after terminal %s", e.Kind, k)
			}
		}
		switch e.Kind {
		case LeaseAcquired:
			if e.N <= 0 {
				violate(e.Seq, e.Job, "lease-acquired with n=%d", e.N)
				continue
			}
			held[leaseKey{e.Job, e.Site}] += e.N
		case LeaseReleased:
			k := leaseKey{e.Job, e.Site}
			n := e.N
			if n <= 0 {
				violate(e.Seq, e.Job, "lease-released with n=%d", n)
				continue
			}
			if held[k] >= n {
				held[k] -= n
				continue
			}
			// Partially (or wholly) covered by a site-death drop.
			n -= held[k]
			held[k] = 0
			if forgiven[k] >= n {
				forgiven[k] -= n
				continue
			}
			violate(e.Seq, e.Job, "released %d lease(s) on %s never acquired", n-forgiven[k], e.Site)
			forgiven[k] = 0
		case LeaseDropped:
			for k, n := range held {
				if k.site == e.Site && n > 0 {
					forgiven[k] += n
					held[k] = 0
				}
			}
		case Started:
			k := attemptKey{e.Job, e.Attempt}
			if started[k] {
				violate(e.Seq, e.Job, "duplicate started for attempt %d", e.Attempt)
			}
			started[k] = true
		case OffloadSent:
			if offload[e.Job] {
				violate(e.Seq, e.Job, "offload-sent with a transfer already in flight")
			}
			offload[e.Job] = true
		case OffloadAccepted:
			if !offload[e.Job] {
				violate(e.Seq, e.Job, "offload-accepted without outstanding offload-sent")
			}
			offload[e.Job] = false
		case OffloadOrphaned:
			// Legal both for an outstanding transfer (request or ack
			// lost) and after acceptance (reclaim from a dead peer).
			offload[e.Job] = false
		case Resubmitted:
			if last, ok := lastResub[e.Job]; ok && e.Attempt <= last {
				violate(e.Seq, e.Job, "resubmit attempt %d not after %d", e.Attempt, last)
			}
			lastResub[e.Job] = e.Attempt
		case CommitSent:
			k := attemptKey{e.Job, e.Attempt}
			if prev, ok := commits[k]; ok {
				violate(e.Seq, e.Job, "duplicate commit-sent for attempt %d (state %s)", e.Attempt, prev)
			}
			commits[k] = CommitSent
		case Committed, CommitAborted:
			k := attemptKey{e.Job, e.Attempt}
			switch prev, ok := commits[k]; {
			case !ok:
				violate(e.Seq, e.Job, "%s for attempt %d without commit-sent", e.Kind, e.Attempt)
			case prev == CommitAborted && e.Kind == Committed:
				violate(e.Seq, e.Job, "committed after commit-aborted for attempt %d", e.Attempt)
			case prev != CommitSent:
				violate(e.Seq, e.Job, "%s for attempt %d already resolved as %s", e.Kind, e.Attempt, prev)
			}
			commits[k] = e.Kind
		}
		if e.Kind.terminal() && e.Job != "" {
			if _, dead := terminal[e.Job]; !dead {
				terminal[e.Job] = e.Kind
			}
		}
	}

	var endSeq uint64
	if len(events) > 0 {
		endSeq = events[len(events)-1].Seq
	}
	var dangling []leaseKey
	for k, n := range held {
		if n > 0 {
			dangling = append(dangling, k)
		}
	}
	sort.Slice(dangling, func(i, j int) bool {
		if dangling[i].job != dangling[j].job {
			return dangling[i].job < dangling[j].job
		}
		return dangling[i].site < dangling[j].site
	})
	for _, k := range dangling {
		out = append(out, Violation{Seq: endSeq, Job: k.job,
			Msg: fmt.Sprintf("%d dangling lease(s) on %s at end of trace", held[k], k.site)})
	}
	out = append(out, checkDeltaFreshness(events)...)
	return out
}

// checkDeltaFreshness implements invariant 7. Both scans exploit that
// events are emitted in nondecreasing virtual time and that the global
// registry epoch is monotone, so the collected (time, epoch) pairs are
// sorted by construction and each Matched event needs two binary
// searches.
func checkDeltaFreshness(events []Event) []Violation {
	type pub struct {
		t     time.Duration
		epoch uint64
	}
	var pubs []pub
	var heals []time.Duration
	for _, e := range events {
		switch e.Kind {
		case DeltaPublished:
			pubs = append(pubs, pub{e.T, e.Epoch})
		case FaultInjected:
			if e.Detail == "infosys-partition injected" && e.Dur > 0 {
				heals = append(heals, e.T+e.Dur)
			}
		}
	}
	if len(pubs) == 0 || len(heals) == 0 {
		return nil
	}
	sort.Slice(heals, func(i, j int) bool { return heals[i] < heals[j] })
	var out []Violation
	for _, e := range events {
		if e.Kind != Matched || e.Epoch == 0 {
			continue
		}
		pollT := e.T - e.Dur
		// Latest partition heal at or before the deciding poll.
		h := sort.Search(len(heals), func(i int) bool { return heals[i] > pollT }) - 1
		if h < 0 {
			continue
		}
		// Largest epoch published up to that heal.
		p := sort.Search(len(pubs), func(i int) bool { return pubs[i].t > heals[h] }) - 1
		if p < 0 {
			continue
		}
		if e.Epoch < pubs[p].epoch {
			out = append(out, Violation{Seq: e.Seq, Job: e.Job, Msg: fmt.Sprintf(
				"matched at epoch %d, staler than epoch %d published before the partition healed at %v",
				e.Epoch, pubs[p].epoch, heals[h])})
		}
	}
	return out
}

// CheckComplete runs Check plus the drained-grid invariant: every job
// with a Submitted event reached a terminal state. (Gatekeeper
// submissions not tied to a broker job — agent launches labeled by
// their LRM handle ID — carry 2PC events but no Submitted, and are
// exempt.) Use it for logs of runs that drained (the chaos sweep); a
// trace cut mid-run legitimately fails it.
func CheckComplete(events []Event) []Violation {
	out := Check(events)
	terminal := make(map[string]bool)
	firstSeq := make(map[string]uint64)
	var jobs []string
	for _, e := range events {
		if e.Job == "" {
			continue
		}
		if e.Kind == Submitted {
			if _, ok := firstSeq[e.Job]; !ok {
				firstSeq[e.Job] = e.Seq
				jobs = append(jobs, e.Job)
			}
		}
		if e.Kind.terminal() {
			terminal[e.Job] = true
		}
	}
	for _, job := range jobs {
		if !terminal[job] {
			out = append(out, Violation{Seq: firstSeq[job], Job: job, Msg: "no terminal event"})
		}
	}
	return out
}
