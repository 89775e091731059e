// Package trace is the job-lifecycle event-tracing subsystem: a
// low-overhead, deterministic recorder on the simulation clock that
// gives every job an ordered event timeline — the per-job view of the
// quantities the paper's evaluation reports only in aggregate (match
// latency, two-phase-commit outcome, console attach, resubmission
// after failure).
//
// The tracer is off by default everywhere: a disabled tracer is a nil
// pointer, and every method is nil-receiver safe, so instrumented code
// pays exactly one nil check per potential event. Events are appended
// in simulation-execution order, which is deterministic for a fixed
// seed — the same run emits a byte-identical JSONL export, so traces
// can serve as golden artifacts that CI diffs.
//
// On top of the raw log live three consumers: Timelines reconstructs
// per-job histories with derived latencies (timeline.go), Check
// verifies structural invariants of the log (check.go), and the
// exporters serialize to JSONL and Chrome trace_event format for
// chrome://tracing / Perfetto (export.go).
package trace

import (
	"fmt"
	"time"
)

// Kind enumerates the event classes of the schema (DESIGN.md §3d).
type Kind uint8

// Job lifecycle events (Job is always set).
const (
	// Submitted marks the job entering the broker.
	Submitted Kind = iota
	// Matched marks the broker choosing a site for an attempt; Site
	// and Rank carry the choice.
	Matched
	// CommitSent marks the two-phase commit's phase-1 accept: the LRM
	// holds the job, the commit acknowledgment is in flight.
	CommitSent
	// Committed marks the phase-2 acknowledgment arriving.
	Committed
	// CommitAborted marks the 2PC aborting: the site died (or was cut
	// off) between phase-1 accept and the commit acknowledgment.
	CommitAborted
	// Started marks the job running on its allocation.
	Started
	// ConsoleAttached marks a console agent's first connection to the
	// shadow (N carries the subjob index). No component emits the three
	// console kinds yet: they keep their wire names for console events
	// on the simulation clock.
	ConsoleAttached
	// LinkDown marks a console link losing its connection (transient)
	// or giving up permanently (Detail says which).
	LinkDown
	// LinkResumed marks a console link re-attaching after LinkDown.
	LinkResumed
	// HeartbeatLost marks the broker noticing a hosting glide-in
	// agent's death via heartbeat monitoring.
	HeartbeatLost
	// Resubmitted marks a failure-driven resubmission; Attempt is the
	// new (monotonically increasing) attempt index and Detail the
	// reason.
	Resubmitted
	// Done, Failed and Aborted are the terminal states.
	Done
	Failed
	Aborted
)

// Lease bookkeeping events (Job and Site set). Lease events may trail
// a job's terminal event: the broker's deferred releases run after the
// failure handler, so the post-terminal invariant exempts them.
const (
	// LeaseAcquired marks the broker reserving N CPUs on Site.
	LeaseAcquired Kind = iota + 32
	// LeaseReleased marks the broker undoing N of the job's leases.
	LeaseReleased
	// LeaseDropped marks every lease on Site being dropped at once
	// (site death or unregistration); Job is empty.
	LeaseDropped
)

// Grid-level events (Job is usually empty; Site identifies the
// subject). The timeline reconstructor cross-references them into the
// timelines of jobs that touched the site.
const (
	// Quarantined marks Site's circuit breaker tripping.
	Quarantined Kind = iota + 48
	// Unquarantined marks Site's breaker resetting after a successful
	// half-open probe.
	Unquarantined
	// SiteCrashed and SiteRestarted bracket a site's downtime.
	SiteCrashed
	SiteRestarted
	// AgentDied marks a glide-in agent leaving involuntarily (killed
	// by fault injection, or evicted by the LRM; Detail says which).
	AgentDied
	// FaultInjected marks the fault layer applying (or skipping) an
	// event; Detail carries the fault kind and status.
	FaultInjected
	// DeltaPublished marks the information service appending one record
	// delta to a shard's log: Site is the published site, N the shard
	// index, Epoch the global registry epoch after the mutation and
	// Detail the delta kind (added/updated/removed). Emitted only when
	// delta logs are enabled and a tracer is wired to the service.
	DeltaPublished
	// SubscriptionGap marks a delta subscriber finding a shard's log
	// compacted past its position and falling back to a snapshot
	// re-pin: N is the shard index, Epoch the shard epoch the re-pinned
	// snapshot carries.
	SubscriptionGap
)

// Federation events (Job set; Site carries the sending broker and
// Detail the receiving broker). They track the cross-broker transfer
// lease of a queued job being offloaded to a peer or supervisor; the
// checker enforces their pairing (at most one transfer in flight per
// job, acceptance only for an outstanding transfer).
const (
	// OffloadSent marks a broker shipping a queued job to a peer: the
	// origin holds a transfer lease until the acknowledgment (or its
	// timeout) resolves it.
	OffloadSent Kind = iota + 64
	// OffloadAccepted marks the receiving broker taking ownership; the
	// job's lifecycle continues there under the same ID.
	OffloadAccepted
	// OffloadOrphaned marks a transfer lease resolving without a clean
	// acknowledgment: the request or ack was lost, or the receiving
	// broker died — Detail says which, and reconciliation decides the
	// single owner.
	OffloadOrphaned
)

// Data-placement events.
const (
	// DataStaged marks the broker paying the real transfer of a job's
	// InputData replicas to the chosen site before submission; Dur
	// carries the staging time (zero-cost local staging is not
	// emitted).
	DataStaged Kind = iota + 80
)

var kindNames = map[Kind]string{
	Submitted:       "submitted",
	Matched:         "matched",
	CommitSent:      "commit-sent",
	Committed:       "committed",
	CommitAborted:   "commit-aborted",
	Started:         "started",
	ConsoleAttached: "console-attached",
	LinkDown:        "link-down",
	LinkResumed:     "link-resumed",
	HeartbeatLost:   "heartbeat-lost",
	Resubmitted:     "resubmitted",
	Done:            "done",
	Failed:          "failed",
	Aborted:         "aborted",
	LeaseAcquired:   "lease-acquired",
	LeaseReleased:   "lease-released",
	LeaseDropped:    "lease-dropped",
	Quarantined:     "quarantined",
	Unquarantined:   "unquarantined",
	SiteCrashed:     "site-crashed",
	SiteRestarted:   "site-restarted",
	AgentDied:       "agent-died",
	FaultInjected:   "fault-injected",
	DeltaPublished:  "delta-published",
	SubscriptionGap: "subscription-gap",
	OffloadSent:     "offload-sent",
	OffloadAccepted: "offload-accepted",
	OffloadOrphaned: "offload-orphaned",
	DataStaged:      "data-staged",
}

// kindByName resolves a kind from its wire name (JSONL imports).
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String names the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// terminal reports whether the kind ends a job's lifecycle.
func (k Kind) terminal() bool { return k == Done || k == Failed || k == Aborted }

// lifecycle reports whether the kind is a job lifecycle event — the
// class the post-terminal invariant applies to. Lease bookkeeping and
// grid-level events are exempt.
func (k Kind) lifecycle() bool { return k <= Aborted }

// Event is one trace record. The zero value of every optional field is
// omitted from exports, so the JSONL stays compact and deterministic.
type Event struct {
	// Seq is the tracer-assigned global order (0, 1, 2, ...).
	Seq uint64 `json:"seq"`
	// T is the virtual-time offset from the tracer's start.
	T time.Duration `json:"t_ns"`
	// Job is the broker job ID ("" for grid-level events).
	Job string `json:"job,omitempty"`
	// Kind is the event class.
	Kind Kind `json:"-"`
	// Name is Kind's wire form; filled by the tracer on Emit.
	Name string `json:"kind"`
	// Site is the involved site ("" when not site-specific).
	Site string `json:"site,omitempty"`
	// Attempt is the job's resubmission index at the event.
	Attempt int `json:"attempt,omitempty"`
	// N is an event-specific count (leased CPUs, console subjob).
	N int `json:"n,omitempty"`
	// Rank is the matchmaking rank of a Matched event.
	Rank float64 `json:"rank,omitempty"`
	// Dur is an event-specific window (fault duration; on a Matched
	// event from the incremental path, time since the delta poll the
	// match was decided against).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Epoch is the registry epoch the event refers to: on
	// DeltaPublished the global epoch after the mutation, on
	// SubscriptionGap the re-pinned shard epoch, on Matched (incremental
	// path only) the global epoch the deciding poll had caught up to.
	Epoch uint64 `json:"epoch,omitempty"`
	// Detail is free-form context (failure reason, fault kind).
	Detail string `json:"detail,omitempty"`
}

// Trace is a labeled event log — one tracer's output, or one parsed
// JSONL group.
type Trace struct {
	Label  string
	Events []Event
}

// Tracer records events against a simulation clock. All methods are
// safe on a nil receiver: a nil *Tracer is the disabled state, and
// instrumented code calls Emit unconditionally.
//
// A Tracer is unlocked, like the Sim it reads: every component that
// emits runs on that Sim's goroutine.
type Tracer struct {
	now    func() time.Time
	start  time.Time
	events []Event
	seq    uint64
}

// New creates a tracer reading timestamps from now, normally Sim.Now.
// The first reading fixes the trace origin.
func New(now func() time.Time) *Tracer {
	return &Tracer{now: now, start: now(), events: make([]Event, 0, 256)}
}

// Emit appends an event, assigning its sequence number, timestamp and
// wire name. No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.Seq = t.seq
	t.seq++
	e.T = t.now().Sub(t.start)
	e.Name = e.Kind.String()
	t.events = append(t.events, e)
}

// Snapshot packages a copy of the current log, in emission order,
// under a label for export (no events for a nil tracer).
func (t *Tracer) Snapshot(label string) Trace {
	if t == nil {
		return Trace{Label: label}
	}
	return Trace{Label: label, Events: append([]Event(nil), t.events...)}
}
