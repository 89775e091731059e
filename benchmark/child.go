package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// minSetupBatch is the shortest stretch of set-ups the child times:
// where one set-up is shorter, it times several and reports the time
// per set-up.
const minSetupBatch = 250 * time.Millisecond

// childResult is what one repetition (one fresh process) reports to
// the parent, as one JSON line on standard output.
type childResult struct {
	Workload string `json:"workload"`
	// SetupSeconds is the wall time of one set-up, averaged over the
	// SetupBatch set-ups the child timed, and SetupSpeed the host's
	// speed (calib.go) from the bursts taken between them.
	SetupSeconds float64 `json:"setup_s"`
	SetupBatch   int     `json:"setup_batch"`
	SetupSpeed   float64 `json:"setup_speed"`
	// Run is the timed section: every job submitted and the grid
	// drained, without the speedometer's bursts. Speed is the host's
	// speed from the bursts spread through it.
	Run   section `json:"run"`
	Speed float64 `json:"speed"`
	// Point is the program's own summary of the run. It is
	// deterministic: the parent requires it byte-identical across
	// repetitions.
	Point experiments.ReplayPoint `json:"point"`
	// PeakRSSKB is VmHWM at exit without the speedometer's keys;
	// HeapSysMB the heap the runtime obtained from the OS; GCCPUShare the
	// collector's share of process CPU over the timed section.
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	HeapSysMB  float64 `json:"heap_sys_mb"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	// The traced child adds the program's event counts by kind and the
	// harness's span totals, and writes the span file.
	Events   map[string]int        `json:"events,omitempty"`
	Spans    map[string]spanTotals `json:"spans,omitempty"`
	SpanFile string                `json:"span_file,omitempty"`
}

func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runChild is one repetition: set up from the seed, run the timed
// section, check the outcome. outDir holds the set-up files (removed
// again) and, when traced, the span file.
func runChild(s spec, seed int64, traced bool, setupBatch time.Duration, outDir string) (childResult, error) {
	runtime.GOMAXPROCS(pinnedProcs)
	debug.SetGCPercent(pinnedGCPercent)
	res := childResult{Workload: s.name}
	var rec *recorder
	if traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d-pid%d", s.name, seed, os.Getpid()))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}

	meter, err := newSpeedometer(rec)
	if err != nil {
		return res, err
	}
	var run runFunc
	var dir string
	defer func() { os.RemoveAll(dir) }()
	var elapsed time.Duration
	for elapsed < setupBatch {
		// Every set-up starts from nothing: a fresh directory, the
		// previous set-up's files gone.
		os.RemoveAll(dir)
		if dir, err = os.MkdirTemp(outDir, "child-"); err != nil {
			return res, err
		}
		for i := 0; i < setupBursts; i++ {
			meter.burst()
		}
		start := time.Now()
		if run, err = s.setup(seed, dir, rec); err != nil {
			return res, err
		}
		elapsed += time.Since(start)
		res.SetupBatch++
	}
	for i := 0; i < setupBursts; i++ {
		meter.burst()
	}
	res.SetupSeconds = elapsed.Seconds() / float64(res.SetupBatch)
	res.SetupSpeed, _ = meter.take()

	gc0, total0 := gcCPUSeconds()
	res.Run, err = timeSection(func() error {
		var err error
		res.Point, err = run(meter)
		meter.burst()
		return err
	})
	if err != nil {
		return res, err
	}
	var bursts float64
	res.Speed, bursts = meter.take()
	res.Run.CPUSeconds -= bursts
	res.Run.WallSeconds -= bursts
	gc1, total1 := gcCPUSeconds()
	if total1 > total0 {
		res.GCCPUShare = (gc1 - gc0) / (total1 - total0)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapSysMB = float64(ms.HeapSys) / (1 << 20)

	if err := checkPoint(s, res.Point); err != nil {
		return res, err
	}
	if traced {
		events := res.Point.Trace.Events
		check := trace.CheckComplete
		if res.Point.Pending > 0 {
			check = trace.Check
		}
		if v := check(events); len(v) != 0 {
			return res, fmt.Errorf("%s: %d trace invariant violations, first: %s", s.name, len(v), v[0])
		}
		res.Events = make(map[string]int)
		for _, e := range events {
			res.Events[e.Kind.String()]++
		}
		res.Spans = rec.totals()
		res.SpanFile = filepath.Join(outDir, "spans-"+s.name+".jsonl")
		if err := rec.write(res.SpanFile); err != nil {
			return res, err
		}
	}
	if res.PeakRSSKB, err = peakRSSKB(); err != nil {
		return res, err
	}
	res.PeakRSSKB -= meter.residentKB()
	return res, nil
}

// checkPoint is the per-repetition correctness gate: every submitted
// job is accounted for exactly once, and only the saturated workload
// may leave jobs pending.
func checkPoint(s spec, p experiments.ReplayPoint) error {
	if p.Submitted != s.jobs {
		return fmt.Errorf("%s: submitted %d of %d jobs", s.name, p.Submitted, s.jobs)
	}
	if p.Done+p.Failed+p.Pending != p.Submitted {
		return fmt.Errorf("%s: lost jobs: %d done + %d failed + %d pending != %d submitted",
			s.name, p.Done, p.Failed, p.Pending, p.Submitted)
	}
	if p.Pending != 0 && !s.pendingOK {
		return fmt.Errorf("%s: %d jobs left pending", s.name, p.Pending)
	}
	return nil
}

func childMain(o options) error {
	var res any
	var err error
	if o.child == layersChild {
		res, err = runLayers(o.seed, o.layerLoop, o.layerRounds, o.out)
	} else {
		var s spec
		if s, err = findSpec(o.child); err == nil {
			// A scaled-down run (the smoke test) also times fewer set-ups.
			res, err = runChild(s.scaled(o.scale), o.seed, o.traced, minSetupBatch/time.Duration(max(o.scale, 1)), o.out)
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
