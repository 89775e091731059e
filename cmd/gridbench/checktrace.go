package main

import (
	"fmt"
	"io"
	"os"

	"crossbroker/internal/trace"
)

// checktrace verifies a JSONL event log produced by -exp chaos
// -traceout (or any trace.WriteJSONL export): it parses the stream,
// runs the structural invariant checker over every embedded trace, and
// prints a per-trace summary with derived latencies. A non-empty
// -chromeout additionally converts the whole log to Chrome trace_event
// JSON for chrome://tracing / Perfetto.
func checktrace(o options) error {
	if o.tracein == "" {
		return fmt.Errorf("-tracein is required")
	}
	f, err := os.Open(o.tracein)
	if err != nil {
		return err
	}
	traces, err := trace.ParseJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s holds no events", o.tracein)
	}

	bad := 0
	for _, tr := range traces {
		label := tr.Label
		if label == "" {
			label = "(unlabeled)"
		}
		violations := trace.CheckComplete(tr.Events)
		tls := trace.Timelines(tr.Events)
		var resubs int
		for _, tl := range tls {
			resubs += tl.Latencies().Resubmits
		}
		fmt.Printf("%s: %d events, %d jobs, %d resubmissions, %d violations\n",
			label, len(tr.Events), len(tls), resubs, len(violations))
		for _, v := range violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
		bad += len(violations)
	}

	if o.chromeout != "" {
		if err := writeFile(o.chromeout, func(w io.Writer) error { return trace.WriteChromeTrace(w, traces) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", o.chromeout)
	}
	if bad != 0 {
		return fmt.Errorf("%d invariant violations in %s", bad, o.tracein)
	}
	fmt.Printf("%s: all invariants hold\n", o.tracein)
	return nil
}
