package core

import (
	"bytes"
	"testing"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/faultinject"
	"crossbroker/internal/trace"
)

// TestSystemUnifiedTrace drives every traced component — broker
// scheduling on a sharded registry, a site crash and an information
// system partition via the system fault injector — through the one
// tracer NewSystem wires end to end, then asserts the combined log
// exports as a single JSONL timeline that round-trips and passes the
// trace checker.
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

	// One timeline: broker lifecycle and injected faults both present
	// in a single log.
	unified := sys.Tracer.Snapshot("unified")
	events := unified.Events
	seen := make(map[trace.Kind]bool, len(events))
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, want := range []trace.Kind{trace.Submitted, trace.Done, trace.FaultInjected} {
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
