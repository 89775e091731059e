package trace

import "time"

// Timeline is one job's reconstructed history: its own events in
// emission order, plus the grid-level events (crashes, quarantines,
// injected faults) that hit a site the job touched while the job was
// in flight — the cross-reference that turns "goodput dipped at rate
// 2/h" into "cb-000007 was on s02 when the 14:03 crash landed".
type Timeline struct {
	// Job is the broker job ID.
	Job string
	// Events are the job-scoped events, ordered by Seq.
	Events []Event
	// Related are grid-level events on sites the job touched, within
	// the job's [submit, terminal] window, ordered by Seq.
	Related []Event
}

// Latencies are the per-job derived quantities — the paper's Table I
// and recovery measurements, computable per job instead of only in
// aggregate.
type Latencies struct {
	// Match is submission → first site choice (discovery+selection).
	Match time.Duration
	// Startup is submission → first Started (response-time numerator).
	Startup time.Duration
	// Recovery is first Resubmitted → terminal: how long the job spent
	// getting back on its feet. Zero when the job never failed over.
	Recovery time.Duration
	// Total is submission → terminal (zero while in flight).
	Total time.Duration
	// Resubmits is the failure-driven resubmission count.
	Resubmits int
	// Terminal is Done, Failed or Aborted; Submitted (the zero Kind)
	// when the trace ends with the job still in flight.
	Terminal Kind
}

// Latencies derives the job's timing summary from its events.
func (tl *Timeline) Latencies() Latencies {
	var l Latencies
	var submitted, matched, started, resubmitted, terminal *Event
	for i := range tl.Events {
		e := &tl.Events[i]
		switch {
		case e.Kind == Submitted && submitted == nil:
			submitted = e
		case e.Kind == Matched && matched == nil:
			matched = e
		case e.Kind == Started && started == nil:
			started = e
		case e.Kind == Resubmitted:
			if resubmitted == nil {
				resubmitted = e
			}
			if e.Attempt > l.Resubmits {
				l.Resubmits = e.Attempt
			}
		case e.Kind.terminal() && terminal == nil:
			terminal = e
			l.Terminal = e.Kind
		}
	}
	if submitted == nil {
		return l
	}
	if matched != nil {
		l.Match = matched.T - submitted.T
	}
	if started != nil {
		l.Startup = started.T - submitted.T
	}
	if terminal != nil {
		l.Total = terminal.T - submitted.T
		if resubmitted != nil {
			l.Recovery = terminal.T - resubmitted.T
		}
	}
	return l
}

// Timelines reconstructs per-job timelines from a raw event log,
// ordered by each job's first appearance (deterministic for a
// deterministic log). Grid-level events are attached to every job
// whose lifecycle touched their site inside the job's active window.
func Timelines(events []Event) []Timeline {
	index := make(map[string]int)
	var out []Timeline
	for _, e := range events {
		if e.Job == "" {
			continue
		}
		i, ok := index[e.Job]
		if !ok {
			i = len(out)
			index[e.Job] = i
			out = append(out, Timeline{Job: e.Job})
		}
		out[i].Events = append(out[i].Events, e)
	}

	// Cross-reference grid-level events: for each job, the sites it
	// touched and its active window.
	type window struct {
		sites      map[string]bool
		start, end time.Duration
		openEnded  bool
	}
	wins := make([]window, len(out))
	for i := range out {
		w := window{sites: make(map[string]bool), openEnded: true}
		for j, e := range out[i].Events {
			if j == 0 {
				w.start = e.T
			}
			if e.Site != "" {
				w.sites[e.Site] = true
			}
			if e.Kind.terminal() {
				w.end = e.T
				w.openEnded = false
			} else if w.openEnded {
				w.end = e.T
			}
		}
		wins[i] = w
	}
	for _, e := range events {
		if e.Job != "" || e.Site == "" {
			continue
		}
		for i := range out {
			w := &wins[i]
			if !w.sites[e.Site] {
				continue
			}
			if e.T < w.start || (!w.openEnded && e.T > w.end) {
				continue
			}
			out[i].Related = append(out[i].Related, e)
		}
	}
	return out
}
