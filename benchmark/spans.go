package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/workload"
)

// span is one timed call across a layer boundary, recorded by the
// harness around its own calls into the program. Parent is the index
// of the span that was open when this one began (-1 at the root).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

// recorder keeps the spans of one traced child in memory and writes
// them out at exit. The simulation is one logical thread, so a stack
// of open spans is enough to know each span's parent. A nil recorder
// records nothing: the untraced runs pass nil.
type recorder struct {
	runID string
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, t0: time.Now()}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	// Almost always the top of the stack; a blocking directory read on
	// the cooperative engine can end after a span that began later.
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// spanTotals is one span name's share of a traced run.
type spanTotals struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is the total minus the time covered by child spans.
	Self float64 `json:"self_s"`
}

func (r *recorder) totals() map[string]spanTotals {
	if r == nil {
		return nil
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range r.spans {
		t := out[s.Name]
		t.Count++
		t.Total += (s.End - s.Start).Seconds()
		t.Self += self[i].Seconds()
		out[s.Name] = t
	}
	return out
}

// write stores the spans as JSON lines: one object per span with the
// run id, the span's id and its parent's (-1 for a root), and start
// and end in nanoseconds since the recorder was created.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if err := enc.Encode(struct {
			Run    string `json:"run"`
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{r.runID, i, s.Parent, s.Name, int64(s.Start), int64(s.End)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func renderTotals(t map[string]spanTotals) string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  span %-20s count %8d  total %9.4f s  self %9.4f s\n", n, t[n].Count, t[n].Total, t[n].Self)
	}
	return s
}

// timedStream is the timing decorator around the replay stream the
// harness hands to the sweep: every Next is a workload.next span.
type timedStream struct {
	workload.ReplayStream
	rec *recorder
}

func (t timedStream) Next() (workload.Job, time.Duration, bool) {
	id := t.rec.begin("workload.next")
	j, d, ok := t.ReplayStream.Next()
	t.rec.end(id)
	return j, d, ok
}

// timedDirectory is the timing decorator around the information
// service the harness hands to the broker. It embeds the service so the
// broker still finds every method it looks for (a wrapper with only the
// Directory methods would push the broker off its default flow), and
// times the reads and writes. A discover span covers starting the
// traversal; the broker pulls the pages later.
type timedDirectory struct {
	*infosys.Service
	rec *recorder
}

func (t timedDirectory) Snapshot() *infosys.Snapshot {
	id := t.rec.begin("infosys.snapshot")
	defer t.rec.end(id)
	return t.Service.Snapshot()
}

func (t timedDirectory) SnapshotImmediate() *infosys.Snapshot {
	id := t.rec.begin("infosys.snapshot")
	defer t.rec.end(id)
	return t.Service.SnapshotImmediate()
}

func (t timedDirectory) Discover(pageSize int) *infosys.Cursor {
	id := t.rec.begin("infosys.discover")
	defer t.rec.end(id)
	return t.Service.Discover(pageSize)
}

func (t timedDirectory) DiscoverImmediate(pageSize int) *infosys.Cursor {
	id := t.rec.begin("infosys.discover")
	defer t.rec.end(id)
	return t.Service.DiscoverImmediate(pageSize)
}

func (t timedDirectory) Publish(rec infosys.SiteRecord) error {
	id := t.rec.begin("infosys.publish")
	defer t.rec.end(id)
	return t.Service.Publish(rec)
}

func (t timedDirectory) Remove(name string) {
	id := t.rec.begin("infosys.remove")
	defer t.rec.end(id)
	t.Service.Remove(name)
}
