package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonlEvent is the wire form of one JSONL line: the event plus the
// trace label it belongs to. Struct field order fixes the key order,
// so a deterministic event log serializes byte-identically.
type jsonlEvent struct {
	Trace string `json:"trace,omitempty"`
	Event
}

// WriteJSONL serializes traces as one JSON object per line, events in
// order, traces concatenated. Deterministic input produces
// byte-identical output — the golden-artifact property CI diffs.
func WriteJSONL(w io.Writer, traces []Trace) error {
	bw := bufio.NewWriter(w)
	for _, tr := range traces {
		for _, e := range tr.Events {
			line, err := json.Marshal(jsonlEvent{Trace: tr.Label, Event: e})
			if err != nil {
				return err
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseJSONL reads a WriteJSONL stream back, grouping lines into
// traces by label in order of first appearance.
func ParseJSONL(r io.Reader) ([]Trace, error) {
	var out []Trace
	index := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineno, err)
		}
		k, ok := kindByName[je.Name]
		if !ok {
			return nil, fmt.Errorf("trace: jsonl line %d: unknown kind %q", lineno, je.Name)
		}
		je.Event.Kind = k
		i, ok := index[je.Trace]
		if !ok {
			i = len(out)
			index[je.Trace] = i
			out = append(out, Trace{Label: je.Trace})
		}
		out[i].Events = append(out[i].Events, je.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// chromeEvent is one Chrome trace_event record (the subset of the
// format chrome://tracing and Perfetto consume).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds, ph "X"
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace serializes traces in Chrome trace_event format, one
// process per trace, one thread per job: open the file in
// chrome://tracing or Perfetto to see each job's lifecycle as instant
// markers plus derived phase spans (match, startup, recovery, total).
// Grid-level events land on thread 0 ("grid").
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	var evs []chromeEvent
	for pi, tr := range traces {
		pid := pi + 1
		evs = append(evs, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": "trace " + tr.Label},
		}, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": "grid"},
		})
		tids := make(map[string]int)
		for _, tl := range Timelines(tr.Events) {
			tid := len(tids) + 1
			tids[tl.Job] = tid
			evs = append(evs, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": tl.Job},
			})
			l := tl.Latencies()
			spans := []struct {
				name  string
				start time.Duration
				dur   time.Duration
			}{
				{"total", tl.Events[0].T, l.Total},
				{"match", tl.Events[0].T, l.Match},
				{"startup", tl.Events[0].T, l.Startup},
				{"recovery", tl.Events[0].T + l.Total - l.Recovery, l.Recovery},
			}
			for _, sp := range spans {
				if sp.dur <= 0 {
					continue
				}
				evs = append(evs, chromeEvent{
					Name: sp.name, Cat: "phase", Phase: "X",
					TS: us(sp.start), Dur: us(sp.dur), PID: pid, TID: tid,
				})
			}
		}
		for _, e := range tr.Events {
			tid := 0
			if e.Job != "" {
				tid = tids[e.Job]
			}
			args := map[string]any{"seq": e.Seq}
			if e.Site != "" {
				args["site"] = e.Site
			}
			if e.Attempt != 0 {
				args["attempt"] = e.Attempt
			}
			if e.N != 0 {
				args["n"] = e.N
			}
			if e.Rank != 0 {
				args["rank"] = e.Rank
			}
			if e.Detail != "" {
				args["detail"] = e.Detail
			}
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: "event", Phase: "i",
				TS: us(e.T), PID: pid, TID: tid, Scope: "t", Args: args,
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
