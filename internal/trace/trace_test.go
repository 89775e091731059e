package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced virtual clock.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2006, 9, 25, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) tracer() *Tracer         { return New(c.Now) }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: Submitted, Job: "j1"})
	if tr.Snapshot("").Events != nil {
		t.Error("nil tracer holds events")
	}
	if got := tr.Snapshot("x"); got.Events != nil {
		t.Error("nil tracer snapshot holds events")
	}
}

func TestEmitAssignsSeqAndTime(t *testing.T) {
	clk := newFakeClock()
	tr := clk.tracer()
	tr.Emit(Event{Kind: Submitted, Job: "j1"})
	clk.Advance(3 * time.Second)
	tr.Emit(Event{Kind: Matched, Job: "j1", Site: "s0", Rank: 2.5})
	evs := tr.Snapshot("").Events
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("seq = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].T != 0 || evs[1].T != 3*time.Second {
		t.Errorf("T = %v,%v, want 0,3s", evs[0].T, evs[1].T)
	}
	if evs[1].Name != "matched" {
		t.Errorf("Name = %q, want matched", evs[1].Name)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range []Kind{Submitted, Matched, CommitSent, Committed, CommitAborted,
		Started, ConsoleAttached, LinkDown, LinkResumed, HeartbeatLost, Resubmitted,
		Done, Failed, Aborted, LeaseAcquired, LeaseReleased, LeaseDropped,
		Quarantined, Unquarantined, SiteCrashed, SiteRestarted, AgentDied, FaultInjected} {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		back, ok := kindByName[name]
		if !ok || back != k {
			t.Errorf("kindByName[%q] = %v,%v, want %v", name, back, ok, k)
		}
	}
	if Submitted.terminal() || !Done.terminal() || !Failed.terminal() || !Aborted.terminal() {
		t.Error("Terminal misclassifies")
	}
	if !Aborted.lifecycle() || LeaseAcquired.lifecycle() || FaultInjected.lifecycle() {
		t.Error("Lifecycle misclassifies")
	}
}

// synthJob emits a clean lifecycle for one job.
func synthJob(tr *Tracer, clk *fakeClock, job, site string) {
	tr.Emit(Event{Kind: Submitted, Job: job})
	clk.Advance(time.Second)
	tr.Emit(Event{Kind: Matched, Job: job, Site: site, Rank: 4})
	tr.Emit(Event{Kind: LeaseAcquired, Job: job, Site: site, N: 1})
	clk.Advance(2 * time.Second)
	tr.Emit(Event{Kind: CommitSent, Job: job, Site: site})
	clk.Advance(time.Second)
	tr.Emit(Event{Kind: Committed, Job: job, Site: site})
	clk.Advance(time.Second)
	tr.Emit(Event{Kind: Started, Job: job, Site: site})
	tr.Emit(Event{Kind: LeaseReleased, Job: job, Site: site, N: 1})
	clk.Advance(10 * time.Second)
	tr.Emit(Event{Kind: Done, Job: job})
}

func TestJSONLRoundTripAndDeterminism(t *testing.T) {
	make1 := func() []byte {
		clk := newFakeClock()
		tr := clk.tracer()
		synthJob(tr, clk, "j1", "s0")
		synthJob(tr, clk, "j2", "s1")
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Trace{tr.Snapshot("t0")}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := make1(), make1()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical logs serialized differently:\n%s\nvs\n%s", a, b)
	}

	traces, err := ParseJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Label != "t0" {
		t.Fatalf("parsed %d traces (label %q), want 1 (t0)", len(traces), traces[0].Label)
	}
	if len(traces[0].Events) != 16 {
		t.Fatalf("parsed %d events, want 16", len(traces[0].Events))
	}
	e := traces[0].Events[1]
	if e.Kind != Matched || e.Job != "j1" || e.Site != "s0" || e.Rank != 4 || e.T != time.Second {
		t.Errorf("round-tripped event mangled: %+v", e)
	}
	var reBuf bytes.Buffer
	if err := WriteJSONL(&reBuf, traces); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reBuf.Bytes(), a) {
		t.Error("write→parse→write not byte-stable")
	}
}

func TestParseJSONLRejectsGarbage(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ParseJSONL(strings.NewReader(`{"seq":0,"t_ns":0,"kind":"no-such-kind"}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestTimelinesAndLatencies(t *testing.T) {
	clk := newFakeClock()
	tr := clk.tracer()
	tr.Emit(Event{Kind: Submitted, Job: "j1"})
	clk.Advance(2 * time.Second)
	tr.Emit(Event{Kind: Matched, Job: "j1", Site: "s0"})
	clk.Advance(3 * time.Second)
	tr.Emit(Event{Kind: Started, Job: "j1", Site: "s0"})
	clk.Advance(time.Second)
	// Grid-level crash on the job's site mid-run.
	tr.Emit(Event{Kind: SiteCrashed, Site: "s0"})
	tr.Emit(Event{Kind: Resubmitted, Job: "j1", Attempt: 1, Detail: "site lost"})
	clk.Advance(4 * time.Second)
	tr.Emit(Event{Kind: Done, Job: "j1"})
	// A crash on an untouched site must not be cross-referenced.
	tr.Emit(Event{Kind: SiteCrashed, Site: "s9"})

	tls := Timelines(tr.Snapshot("").Events)
	if len(tls) != 1 || tls[0].Job != "j1" {
		t.Fatalf("timelines = %+v, want one for j1", tls)
	}
	if len(tls[0].Events) != 5 {
		t.Errorf("j1 has %d events, want 5", len(tls[0].Events))
	}
	if len(tls[0].Related) != 1 || tls[0].Related[0].Kind != SiteCrashed || tls[0].Related[0].Site != "s0" {
		t.Errorf("related = %+v, want the s0 crash only", tls[0].Related)
	}
	l := tls[0].Latencies()
	if l.Match != 2*time.Second {
		t.Errorf("match latency = %v, want 2s", l.Match)
	}
	if l.Startup != 5*time.Second {
		t.Errorf("startup latency = %v, want 5s", l.Startup)
	}
	if l.Recovery != 4*time.Second {
		t.Errorf("recovery latency = %v, want 4s", l.Recovery)
	}
	if l.Total != 10*time.Second {
		t.Errorf("total = %v, want 10s", l.Total)
	}
	if l.Resubmits != 1 || l.Terminal != Done {
		t.Errorf("resubmits=%d terminal=%v, want 1, done", l.Resubmits, l.Terminal)
	}
}

func TestChromeTraceExport(t *testing.T) {
	clk := newFakeClock()
	tr := clk.tracer()
	synthJob(tr, clk, "j1", "s0")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Trace{tr.Snapshot("run")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"thread_name"`, `"j1"`,
		`"committed"`, `"ph":"X"`, `"match"`, `"startup"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}
