package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"crossbroker/internal/trace"
)

// Loop settings of the layer measurements: the full run takes its
// time, the driver's traced run fits the layers into its --seconds.
const (
	fullLayerLoop   = 300 * time.Millisecond
	fullLayerRounds = 5
	driverRounds    = 3
)

// spanNames are the spans the harness records around its calls into
// the program; each becomes a per-layer metric (self time, in
// milliseconds, of the traced run), 0 on a workload that has no such
// span.
var spanNames = []string{
	"setup.generate", "setup.validate", "setup.grid", "replay", "workload.next",
	"infosys.publish", "infosys.discover", "broker.submit", "simclock.runfor",
}

// perLayer is the ledger: one layer's cost or count per entry, no
// bounds. README.md says which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "simclock.afterfunc_dispatch_ns", Unit: "ns", Better: "lower"},
		{Name: "simclock.post_dispatch_ns", Unit: "ns", Better: "lower"},
		{Name: "simclock.timer_stop_ns", Unit: "ns", Better: "lower"},
		{Name: "simclock.trigger_fire_ns", Unit: "ns", Better: "lower"},
		{Name: "simclock.afterfunc_allocs", Unit: "count", Better: "lower"},
		{Name: "simclock.trigger_allocs", Unit: "count", Better: "lower"},
		{Name: "vmslot.burst_ns", Unit: "ns", Better: "lower"},
		{Name: "vmslot.burst_allocs", Unit: "count", Better: "lower"},
		{Name: "batch.submit_start_ns", Unit: "ns", Better: "lower"},
		{Name: "batch.submit_start_allocs", Unit: "count", Better: "lower"},
		{Name: "batch.pass_backlog_ns", Unit: "ns", Better: "lower"},
		{Name: "glidein.launch_ns", Unit: "ns", Better: "lower"},
		{Name: "glidein.start_interactive_ns", Unit: "ns", Better: "lower"},
		{Name: "site.submit_2pc_ns", Unit: "ns", Better: "lower"},
		{Name: "site.query_state_ns", Unit: "ns", Better: "lower"},
		{Name: "site.submit_2pc_allocs", Unit: "count", Better: "lower"},
		{Name: "infosys.publish_ns", Unit: "ns", Better: "lower"},
		{Name: "infosys.publish_allocs", Unit: "count", Better: "lower"},
		{Name: "infosys.discover_clean_ns_per_record", Unit: "ns", Better: "lower"},
		{Name: "infosys.discover_dirty_ns_per_record", Unit: "ns", Better: "lower"},
		{Name: "infosys.discover_dirty_bytes", Unit: "B", Better: "lower"},
		{Name: "infosys.subscribe_delta_ns", Unit: "ns", Better: "lower"},
		{Name: "jdl.parse_ns", Unit: "ns", Better: "lower"},
		{Name: "jdl.compile_ns", Unit: "ns", Better: "lower"},
		{Name: "jdl.eval_ns", Unit: "ns", Better: "lower"},
		{Name: "jdl.eval_allocs", Unit: "count", Better: "lower"},
		{Name: "broker.match_pass_us.sites80", Unit: "us", Better: "lower"},
		{Name: "broker.match_pass_us.sites800", Unit: "us", Better: "lower"},
		{Name: "broker.match_pass_req_us.sites800", Unit: "us", Better: "lower"},
		{Name: "broker.match_allocs_per_pass.sites800", Unit: "count", Better: "lower"},
		{Name: "broker.submit_accept_ns", Unit: "ns", Better: "lower"},
		{Name: "broker.lifecycle_us.interactive_shared", Unit: "us", Better: "lower"},
		{Name: "broker.lifecycle_us.batch", Unit: "us", Better: "lower"},
		{Name: "workload.synth_rows_per_s", Unit: "1/s", Better: "higher"},
		{Name: "workload.swf_records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "workload.gwf_records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "workload.stream_next_ns", Unit: "ns", Better: "lower"},
		{Name: "workload.stream_next_allocs", Unit: "count", Better: "lower"},
		{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.emit_disabled_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.jsonl_events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "trace.check_events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "datacat.staging_time_ns", Unit: "ns", Better: "lower"},
		{Name: "fairshare.update_ns", Unit: "ns", Better: "lower"},
		{Name: "faultinject.chaos_sweep_ms", Unit: "ms", Better: "lower"},
		{Name: "federation.sweep_ms", Unit: "ms", Better: "lower"},
		{Name: "datacat.dataaware_sweep_ms", Unit: "ms", Better: "lower"},
		// From the traced run of the workload and the untraced runs
		// beside it.
		{Name: "broker.match_passes_per_job", Unit: "count", Better: "lower"},
		{Name: "site.commits_per_job", Unit: "count", Better: "lower"},
		{Name: "broker.leases_per_job", Unit: "count", Better: "lower"},
		{Name: "broker.resubmits_per_job", Unit: "count", Better: "lower"},
		{Name: "trace.events_per_job", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
		{Name: "host.speed", Unit: "share", Better: "higher"},
		{Name: "host.cpu_jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "host.wall_jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "host.gc_cpu_share", Unit: "share", Better: "lower"},
		{Name: "host.heap_peak_mb", Unit: "MB", Better: "lower"},
		{Name: "sim.turnaround_p95_h", Unit: "h", Better: "lower"},
		{Name: "model.explained_share", Unit: "share", Better: "higher"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{Name: "span." + n + ".self_ms", Unit: "ms", Better: "lower"})
	}
	return defs
}()

// spawnLayers measures the layers in a fresh process, pinned like
// every other child.
func spawnLayers(ctx context.Context, o options, loop time.Duration, rounds int) (map[string]float64, error) {
	out, err := spawn(ctx, o, layersChild, false,
		"-layer-loop", loop.String(), "-layer-rounds", strconv.Itoa(rounds))
	if err != nil {
		return nil, err
	}
	var lay map[string]float64
	if err := json.Unmarshal(out, &lay); err != nil {
		return nil, fmt.Errorf("child %s: result line: %w", layersChild, err)
	}
	return lay, nil
}

// ledgerResult is every per-layer metric for one workload.
type ledgerResult struct {
	reps, attempted int
	values          map[string]float64
	text            string
}

// ledger is the driver's traced run: the layers, two untraced
// repetitions to compare against, and the traced repetition, within
// about the given time.
func ledger(ctx context.Context, o options, s spec, budget time.Duration) (ledgerResult, error) {
	loop := min(max(budget/450, time.Millisecond), fullLayerLoop)
	lay, err := spawnLayers(ctx, o, loop, driverRounds)
	if err != nil {
		return ledgerResult{}, err
	}
	var reps []childResult
	for len(reps) < min(2, o.minReps) {
		r, err := spawnWorkload(ctx, o, s, false)
		if err != nil {
			return ledgerResult{}, err
		}
		reps = append(reps, r)
	}
	sum, err := summarize(s, reps)
	if err != nil {
		return ledgerResult{}, err
	}
	return tracedLedger(ctx, o, sum, lay)
}

// tracedLedger runs the workload once more with tracing on: the
// harness's spans, the program's own event log (checked against the
// trace invariants in the child), and the counts that tie the layer
// costs to the end-to-end cost.
func tracedLedger(ctx context.Context, o options, sum summary, lay map[string]float64) (ledgerResult, error) {
	s := sum.spec
	tr, err := spawnWorkload(ctx, o, s, true)
	if err != nil {
		return ledgerResult{}, err
	}
	untraced, _ := json.Marshal(sum.point)
	traced, _ := json.Marshal(tr.Point)
	if string(untraced) != string(traced) {
		return ledgerResult{}, fmt.Errorf("%s: tracing changed the outcome:\n%s\n%s", s.name, untraced, traced)
	}

	jobs := float64(sum.point.Submitted)
	perJob := func(k trace.Kind) float64 { return float64(tr.Events[k.String()]) / jobs }
	events := 0
	for _, n := range tr.Events {
		events += n
	}
	v := make(map[string]float64, len(perLayer))
	for k, x := range lay {
		v[k] = x
	}
	v["broker.match_passes_per_job"] = perJob(trace.Matched)
	v["site.commits_per_job"] = perJob(trace.CommitSent)
	v["broker.leases_per_job"] = perJob(trace.LeaseAcquired)
	v["broker.resubmits_per_job"] = perJob(trace.Resubmitted)
	v["trace.events_per_job"] = float64(events) / jobs
	tracedCPU := tr.Run.CPUSeconds * tr.Speed
	v["trace.overhead_share"] = tracedCPU/sum.cpu - 1
	v["host.speed"] = sum.speed
	v["host.cpu_jobs_per_s"] = jobs / sum.rawCPU
	v["host.wall_jobs_per_s"] = sum.wallJobsPerS
	v["host.gc_cpu_share"] = sum.gcShare
	v["host.heap_peak_mb"] = sum.heapMB
	v["sim.turnaround_p95_h"] = sum.point.P95TurnaroundH
	for _, n := range spanNames {
		v["span."+n+".self_ms"] = 1e3 * tr.Spans[n].Self
	}

	// The model: what the layer costs predict one job costs. A match
	// pass has a fixed part and a part per registry record; the two
	// measured grid sizes give both.
	perRecord := (lay["broker.match_pass_us.sites800"] - lay["broker.match_pass_us.sites80"]) / (800 - 80)
	passNs := 1e3 * (lay["broker.match_pass_us.sites80"] + perRecord*float64(s.sites-80))
	model := lay["broker.submit_accept_ns"] +
		perJob(trace.CommitSent)*lay["site.submit_2pc_ns"] +
		float64(sum.point.SharedPlacements)/jobs*lay["glidein.start_interactive_ns"] +
		v["trace.events_per_job"]*lay["trace.emit_disabled_ns"]
	if s.churn {
		// Jobs carry Requirements and Rank, and every pass finds the
		// shard snapshots dirtied by the publishes before it.
		// The publishes between two arrivals dirty this share of them.
		dirty := 1 - math.Pow(1-1.0/churnShards, churnPerJob)
		passNs *= lay["broker.match_pass_req_us.sites800"] / lay["broker.match_pass_us.sites800"]
		passNs += dirty * float64(s.sites) * (lay["infosys.discover_dirty_ns_per_record"] - lay["infosys.discover_clean_ns_per_record"])
		model += churnPerJob*lay["infosys.publish_ns"] + lay["jdl.compile_ns"]
	} else {
		model += lay["workload.stream_next_ns"]
	}
	model += perJob(trace.Matched) * passNs
	// The layer loops are timed as measured, so the model is held
	// against the CPU time as measured too.
	v["model.explained_share"] = model / (1e9 * sum.rawCPU / jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "%s: per-layer ledger (traced run %.4f reference CPU s against %.4f untraced; span file %s)\n",
		s.name, tracedCPU, sum.cpu, tr.SpanFile)
	b.WriteString(renderTotals(tr.Spans))
	kinds := make([]string, 0, len(tr.Events))
	for k := range tr.Events {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  events %-16s %9d  %.4f per job\n", k, tr.Events[k], float64(tr.Events[k])/jobs)
	}
	for _, m := range perLayer {
		fmt.Fprintf(&b, "  %-42s %18.9g %s\n", m.Name, v[m.Name], m.Unit)
	}
	return ledgerResult{
		reps:      sum.reps,
		attempted: (sum.reps + 1) * sum.point.Submitted,
		values:    v,
		text:      b.String(),
	}, nil
}
