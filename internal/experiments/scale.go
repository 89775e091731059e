package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
)

// ScaleConfig parametrizes the information-system scaling sweep: how
// matchmaking-pass latency and memory behave as the grid grows from
// hundreds to tens of thousands of sites, comparing the unbounded
// single-shard pass, the sharded paged top-K pass, and the
// delta-subscription incremental pass — plus a churn axis at fixed
// grid size that contrasts the delta path against its log-compacted
// degraded mode (snapshot re-pins).
type ScaleConfig struct {
	// Points are the grid sizes to measure (default 100, 250, 500,
	// 1000, 2500, 5000, 50000).
	Points []int
	// Seed drives the broker's randomized selection.
	Seed int64
	// ChurnRates are the churn-axis points: republishes per pass at
	// the fixed ChurnSites grid size, each measured on the delta path
	// and on the re-pin path. Empty skips the churn axis (gridbench
	// runs 0, 64, 256 and 1024).
	ChurnRates []int
	// ChurnSites is the churn axis's grid size (gridbench runs 50000).
	ChurnSites int
}

func (c *ScaleConfig) setDefaults() {
	if len(c.Points) == 0 {
		c.Points = []int{100, 250, 500, 1000, 2500, 5000, 50000}
	}
}

// Every paged and incremental pass keeps scaleTopK candidates, and
// each cell measures scalePasses passes: pass latency is identical
// across them (virtual time) and allocations are reported as the
// minimum observed. scalePassChurn republishes land between
// consecutive passes of the size-axis delta cells, keeping the delta
// path exercised, not idle, as the grid grows. The paged and delta
// cells read a registry of scaleShards shards in pages of
// infosys.DefaultPageSize records, and the delta cells' shards keep
// scaleDeltaDepth deltas each (the repin cells keep none, so every
// epoch-advancing poll falls back to a shard snapshot re-pin).
const (
	scaleTopK       = 16
	scalePasses     = 5
	scalePassChurn  = 64
	scaleShards     = 16
	scaleDeltaDepth = 256
)

// ScalePoint is one measured cell of the sweep. Every field is
// deterministic for a fixed configuration: latencies are virtual time,
// counters come from the pass itself, and allocations are the minimum
// across passes measured with the collector pinned off on one
// scheduler thread.
type ScalePoint struct {
	// Sites is the grid size.
	Sites int `json:"sites"`
	// Mode is "snapshot" (one shard, every match kept: the unbounded
	// baseline), "paged" (sharded registry, top-K selection), "delta"
	// (delta-subscription incremental pass) or "repin" (the delta path
	// with the log disabled, so every poll re-pins shard snapshots).
	Mode string `json:"mode"`
	// Shards, PageSize and TopK echo the cell configuration (Shards 1
	// and TopK 0 for snapshot mode).
	Shards   int `json:"shards"`
	PageSize int `json:"page_size"`
	TopK     int `json:"top_k"`
	// Churn is how many republishes landed between passes (delta and
	// repin cells; zero elsewhere).
	Churn int `json:"churn,omitempty"`
	// DeltaDepth echoes the per-shard delta log depth (delta cells).
	DeltaDepth int `json:"delta_depth,omitempty"`
	// PassMicros is one matchmaking pass's virtual-time latency
	// (discovery + selection) in microseconds.
	PassMicros int64 `json:"pass_micros"`
	// DiscoveryMicros is the discovery share of PassMicros (for the
	// delta and repin cells: the poll — where the delta-vs-re-pin wire
	// cost shows).
	DiscoveryMicros int64 `json:"discovery_micros"`
	// AllocsPerPass is the minimum heap allocations one pass cost.
	// With the event and scratch pools warm this is near-constant for
	// both passes; BytesPerPass carries the grid-size contrast.
	AllocsPerPass uint64 `json:"allocs_per_pass"`
	// BytesPerPass is the minimum bytes one pass allocated. The
	// unbounded pass ranks a candidate per matching record, so this
	// grows with the grid, while the paged pass stays bounded by page
	// size + K and the delta pass by churn.
	BytesPerPass uint64 `json:"bytes_per_pass"`
	// PeakCandidates is the most candidates the pass held at once —
	// the per-pass memory high-water mark the top-K heap bounds.
	PeakCandidates int `json:"peak_candidates"`
	// Scanned counts registry records enumerated per pass (for the
	// incremental pass: the records of the pinned shard snapshots).
	Scanned int `json:"scanned"`
	// Candidates is the ordered candidate count the pass returned.
	Candidates int `json:"candidates"`
	// DeltasPerPass and RepinsPerPass report, for the delta and repin
	// cells, what the steady-state poll was answered with.
	DeltasPerPass int `json:"deltas_per_pass,omitempty"`
	RepinsPerPass int `json:"repins_per_pass,omitempty"`
}

// ScalePointKey names a cell for baseline comparison and
// deduplication.
func ScalePointKey(p ScalePoint) string {
	if p.Churn > 0 {
		return fmt.Sprintf("%s/sites=%d/churn=%d", p.Mode, p.Sites, p.Churn)
	}
	return fmt.Sprintf("%s/sites=%d", p.Mode, p.Sites)
}

// scaleJob is the representative job the sweep matches: a string
// Requirements over published attributes and a Rank over MemoryMB, so
// preliminary ranks form many small tie groups — the top-K heap and
// its boundary tie-break are exercised without collapsing into one
// grid-wide tie.
func scaleJob() (*jdl.Job, error) {
	return jdl.ParseJob(`
Executable   = "scaleprobe";
JobType      = {"interactive", "sequential"};
Requirements = other.OS == "linux" && other.MemoryMB >= 256;
Rank         = other.MemoryMB;
`)
}

// scaleSpec names one cell of the sweep.
type scaleSpec struct {
	sites int
	mode  string // "snapshot", "paged", "delta", "repin"
	churn int    // republishes between passes (delta/repin)
}

// ScaleSweep measures matchmaking passes over grids of cfg.Points
// sites — snapshot mode (one shard, every match kept), paged mode
// (sharded registry, paged discovery, top-K rank heap) and delta mode
// (delta-subscription incremental pass under scalePassChurn churn) — and
// then walks the churn axis at ChurnSites: each ChurnRates value on
// the delta path and on the log-disabled re-pin path. This is the -exp
// scale experiment behind BENCH_infosys.json. Cells run sequentially:
// allocation accounting is process-global, and determinism
// (byte-identical output across runs) is part of the contract.
func ScaleSweep(cfg ScaleConfig) ([]ScalePoint, error) {
	cfg.setDefaults()
	job, err := scaleJob()
	if err != nil {
		return nil, err
	}
	var out []ScalePoint
	seen := make(map[string]bool)
	add := func(spec scaleSpec) error {
		key := ScalePointKey(ScalePoint{Sites: spec.sites, Mode: spec.mode, Churn: spec.churn})
		if seen[key] {
			return nil
		}
		seen[key] = true
		pt, err := scaleCell(cfg, job, spec)
		if err != nil {
			return err
		}
		out = append(out, pt)
		return nil
	}
	for _, n := range cfg.Points {
		for _, spec := range []scaleSpec{
			{n, "paged", 0},
			{n, "snapshot", 0},
			{n, "delta", scalePassChurn},
		} {
			if err := add(spec); err != nil {
				return nil, err
			}
		}
	}
	for _, churn := range cfg.ChurnRates {
		for _, mode := range []string{"delta", "repin"} {
			if err := add(scaleSpec{cfg.ChurnSites, mode, churn}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// scaleCell measures one cell on a fresh grid.
func scaleCell(cfg ScaleConfig, job *jdl.Job, spec scaleSpec) (ScalePoint, error) {
	n := spec.sites
	// The snapshot cell is the unbounded baseline: one shard, every
	// match kept (TopK 0).
	pt := ScalePoint{Sites: n, Mode: spec.mode, Shards: 1, PageSize: infosys.DefaultPageSize, Churn: spec.churn}
	grid := core.SystemConfig{
		Index: core.IndexSpec{Latency: 500 * time.Millisecond, Shards: 1},
		Seed:  cfg.Seed,
		Sites: []core.SiteSpec{{
			NameFormat: "site%04d", Count: n, Nodes: 4, Network: netsim.WideArea(),
			// Keep republish events out of the measured passes; churn
			// is applied explicitly between passes instead.
			PublishInterval: 10000 * time.Hour,
			Vary: func(i int, s *core.SiteSpec) {
				s.Attrs = map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": 512 + i%1024}
			},
		}},
	}
	if spec.mode != "snapshot" {
		pt.Shards, pt.TopK = scaleShards, scaleTopK
		grid.Broker.TopK = scaleTopK
		grid.Index.Shards = scaleShards
	}
	if spec.mode == "delta" || spec.mode == "repin" {
		if spec.mode == "delta" {
			pt.DeltaDepth = scaleDeltaDepth
		}
		// Each shard publishes over its own wide-area link, so the
		// broker subscribes; the repin cells leave the log off so every
		// epoch-advancing poll pays a full shard re-pin instead of a
		// delta replay.
		grid.Index.DeltaLogDepth = pt.DeltaDepth
		grid.Index.ShardLink = netsim.WideArea()
	}
	sys := core.NewSystem(grid)
	sim, info, b := sys.Sim, sys.Info, sys.Broker
	sim.RunFor(time.Minute) // let the initial publishes land

	// applyChurn republishes spec.churn records with moved MemoryMB
	// ranks — the between-pass update stream the delta path is sent as
	// deltas (and the repin path re-pins over).
	churned := 0
	applyChurn := func() {
		for j := 0; j < spec.churn; j++ {
			i := churned % n
			churned++
			_ = info.Publish(infosys.SiteRecord{
				Name:      fmt.Sprintf("site%04d", i),
				TotalCPUs: 4,
				FreeCPUs:  4,
				Attrs:     map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": 512 + (i+churned)%1024},
			})
		}
	}

	runPass := func() (broker.PassStats, error) {
		applyChurn()
		var st broker.PassStats
		done := sim.NewTrigger()
		sim.Post(func() {
			b.SelectionPassStatsAsync(job, func(ps broker.PassStats) { st = ps; done.Fire() })
		})
		sim.RunFor(48 * time.Hour)
		if !done.Fired() {
			return st, fmt.Errorf("experiments: scale pass did not complete (%d sites)", n)
		}
		return st, nil
	}

	// Warm up: compile the job's predicates, build the shard
	// snapshots, fill the attribute-vector pool — and, on the
	// incremental path, absorb the initial catch-up re-pin.
	for i := 0; i < 2; i++ {
		if _, err := runPass(); err != nil {
			return pt, err
		}
	}

	// Measured passes. One scheduler thread and a pinned-off collector
	// make the allocation count reproducible (sync.Pool hits stop
	// depending on P migration, no mid-pass GC empties the pools);
	// virtual-time latency is deterministic by construction.
	prevProcs := runtime.GOMAXPROCS(1)
	runtime.GC()
	prevGC := debug.SetGCPercent(-1)
	allocs := ^uint64(0)
	bytes := ^uint64(0)
	var stats broker.PassStats
	var err error
	for p := 0; p < scalePasses; p++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err = runPass()
		runtime.ReadMemStats(&after)
		if err != nil {
			break
		}
		if d := after.Mallocs - before.Mallocs; d < allocs {
			allocs = d
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < bytes {
			bytes = d
		}
	}
	debug.SetGCPercent(prevGC)
	runtime.GOMAXPROCS(prevProcs)
	if err != nil {
		return pt, err
	}

	pt.PassMicros = (stats.Discovery + stats.Selection).Microseconds()
	pt.DiscoveryMicros = stats.Discovery.Microseconds()
	pt.AllocsPerPass = allocs
	pt.BytesPerPass = bytes
	pt.PeakCandidates = stats.Peak
	pt.Scanned = stats.Scanned
	pt.Candidates = stats.Candidates
	pt.DeltasPerPass = stats.Deltas
	pt.RepinsPerPass = stats.Repins
	return pt, nil
}

// RenderScale formats the sweep like the paper's tables: one row per
// cell, the modes side by side.
func RenderScale(points []ScalePoint) string {
	t := metrics.NewTable("Sites", "Mode", "Churn", "Pass (virtual)", "Discovery", "Peak cands", "Allocs/pass", "KB/pass", "Scanned", "Δ/pass", "Repins")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Sites),
			p.Mode,
			fmt.Sprintf("%d", p.Churn),
			(time.Duration(p.PassMicros) * time.Microsecond).String(),
			(time.Duration(p.DiscoveryMicros) * time.Microsecond).String(),
			fmt.Sprintf("%d", p.PeakCandidates),
			fmt.Sprintf("%d", p.AllocsPerPass),
			fmt.Sprintf("%d", p.BytesPerPass/1024),
			fmt.Sprintf("%d", p.Scanned),
			fmt.Sprintf("%d", p.DeltasPerPass),
			fmt.Sprintf("%d", p.RepinsPerPass),
		)
	}
	return t.String()
}
