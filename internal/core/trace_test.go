package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/faultinject"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/trace"
)

// TestSystemUnifiedTrace drives every traced component — broker
// scheduling on a sharded registry, a site crash and an information
// system partition via the system fault injector, and a real-time
// console session — through the one tracer NewSystem wires end to
// end, then asserts the combined log exports as a single JSONL
// timeline that round-trips and passes the trace checker.
func TestSystemUnifiedTrace(t *testing.T) {
	sys := NewSystem(SystemConfig{
		Trace: true,
		Index: IndexSpec{Shards: 3},
		Seed:  7,
	})
	if sys.Tracer == nil {
		t.Fatal("Trace: true produced no tracer")
	}

	inj := sys.NewFaultInjector(7)
	inj.Start(faultinject.Schedule{
		Seed:    7,
		Horizon: time.Hour,
		Events: []faultinject.Event{
			{Kind: faultinject.SiteCrash, At: 10 * time.Minute, Site: sys.Sites[0].Name(), Duration: 5 * time.Minute},
			{Kind: faultinject.InfosysPartition, At: 20 * time.Minute, Duration: 2 * time.Minute},
		},
	})

	h, err := sys.SubmitJDL(`Executable = "sim"; JobType = "batch";`, "user-a", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.RunUntilDone(h, time.Hour) {
		t.Fatalf("batch job never finished: %v %v", h.State(), h.Err())
	}
	if h.State() != broker.Done {
		t.Fatalf("batch state = %v err = %v", h.State(), h.Err())
	}
	sys.Run(time.Hour) // play the remaining faults out

	// A real-time console session shares the tracer; its events are
	// labeled with their own job ID (the session outlives any broker
	// job here, so it must not reuse a terminated job's ID).
	var out syncBuf
	sess, err := StartSession(SessionConfig{
		Mode:     jdl.FastStreaming,
		Stdout:   &out,
		Stderr:   io.Discard,
		SpillDir: t.TempDir(),
		Trace:    sys.Tracer,
		TraceJob: "console-session",
	}, []interpose.AppFunc{func(_ io.Reader, stdout, _ io.Writer) error {
		_, err := io.WriteString(stdout, "hello\n")
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(10 * time.Second); err != nil {
		sess.Close()
		t.Fatal(err)
	}
	sess.Close()

	// One timeline: broker lifecycle, injected faults and console
	// attach all present in a single log. The log is read once: the
	// shadow's reader goroutine may still emit its link-down after
	// Close returns, and a second read could be one event longer.
	unified := sys.Tracer.Snapshot("unified")
	events := unified.Events
	seen := make(map[trace.Kind]bool, len(events))
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, want := range []trace.Kind{trace.Submitted, trace.Done, trace.ConsoleAttached} {
		if !seen[want] {
			t.Fatalf("unified log missing %v events (kinds seen: %v)", want, seen)
		}
	}

	// The log exports as one JSONL document, round-trips, and passes
	// the structural checker.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, []trace.Trace{unified}); err != nil {
		t.Fatal(err)
	}
	traces, err := trace.ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(traces[0].Events) != len(events) {
		t.Fatalf("round trip lost events: %d traces, %d events (want %d)",
			len(traces), len(traces[0].Events), len(events))
	}
	if vs := trace.Check(traces[0].Events); len(vs) != 0 {
		t.Fatalf("checktrace violations on unified log: %v", vs)
	}
}
