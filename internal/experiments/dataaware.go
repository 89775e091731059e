package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/datacat"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
)

// DataAwareSweep measures what transfer-cost ranking buys: every cell
// runs the identical workload — short interactive jobs, each naming
// one large replicated dataset — twice on identically seeded grids,
// once with data-aware ranking (rank composes compute rank with
// estimated staging time) and once data-blind (classic rank; the same
// staging cost is still paid at submission, the broker just does not
// plan around it). Cells sweep the replica count and the link
// asymmetry. The per-cell seed hashes the cell coordinates, so a
// -quick run is a strict subset of the full grid, cell for cell.

// DataAwarePoint is one (replicas, links) cell.
type DataAwarePoint struct {
	// Replicas is how many sites hold each dataset.
	Replicas int `json:"replicas"`
	// AsymLinks marks the cell where half the sites sit behind the
	// wide-area path, so replica choice and placement interact.
	AsymLinks bool `json:"asym_links"`
	// Jobs is the workload size (identical in both runs).
	Jobs int `json:"jobs"`
	// AwareDone / BlindDone count completed jobs; the sweep errors if
	// either run loses a job.
	AwareDone int `json:"aware_done"`
	BlindDone int `json:"blind_done"`
	// AwareMeanTurnSec / BlindMeanTurnSec are the mean turnarounds.
	AwareMeanTurnSec float64 `json:"aware_mean_turnaround_sec"`
	BlindMeanTurnSec float64 `json:"blind_mean_turnaround_sec"`
	// AwareMeanStageSec / BlindMeanStageSec are the mean staging times
	// recomputed from each job's final site against the catalog — the
	// data actually moved.
	AwareMeanStageSec float64 `json:"aware_mean_stage_sec"`
	BlindMeanStageSec float64 `json:"blind_mean_stage_sec"`
	// AwareLocalPct / BlindLocalPct are the fractions of jobs that
	// landed on a site holding their dataset.
	AwareLocalPct float64 `json:"aware_local_pct"`
	BlindLocalPct float64 `json:"blind_local_pct"`
	// SpeedupPct is the turnaround improvement of aware over blind.
	SpeedupPct float64 `json:"speedup_pct"`
}

// DataAwareConfig parametrizes the sweep.
type DataAwareConfig struct {
	// Seed drives replica placement, workload shape and broker
	// randomization.
	Seed int64
	// Workers bounds concurrent cells; 0 uses one per CPU.
	Workers int
	// Quick shrinks the sweep for CI smoke runs. Quick cells keep the
	// full run's per-cell parameters, so their numbers match the
	// committed full report cell-for-cell.
	Quick bool
}

// The data-aware grid is twelve sites of two nodes. Each run submits
// sixteen jobs, each naming one of four 1 GiB datasets: large enough
// that staging dominates a short job's runtime.
const (
	daSites, daNodes = 12, 2
	daJobs           = 16
	daDatasets       = 4
	daDatasetMB      = 1024
)

// DataAwareSweep runs one independent pair of simulations per cell.
// The full sweep places each dataset on 1, 2 or 4 sites; Quick keeps
// 1 and 2.
func DataAwareSweep(cfg DataAwareConfig) ([]DataAwarePoint, error) {
	replicas := []int{1, 2, 4}
	if cfg.Quick {
		replicas = []int{1, 2}
	}
	type cell struct {
		replicas int
		asym     bool
	}
	var cells []cell
	for _, r := range replicas {
		for _, asym := range []bool{false, true} {
			cells = append(cells, cell{r, asym})
		}
	}
	return runCells(len(cells), cfg.Workers, func(i int) (DataAwarePoint, error) {
		c := cells[i]
		h := fnv.New32a()
		fmt.Fprintf(h, "replicas=%d/asym=%v", c.replicas, c.asym)
		p, err := dataAwarePoint(c.replicas, c.asym, int64(h.Sum32()), cfg)
		if err != nil {
			return p, fmt.Errorf("experiments: dataaware replicas=%d asym=%v: %w", c.replicas, c.asym, err)
		}
		return p, nil
	})
}

func dataAwarePoint(replicas int, asym bool, idx int64, cfg DataAwareConfig) (DataAwarePoint, error) {
	p := DataAwarePoint{Replicas: replicas, AsymLinks: asym, Jobs: daJobs}
	seed := cfg.Seed + idx
	const siteNameFormat = "d%02d"
	siteName := func(i int) string { return fmt.Sprintf(siteNameFormat, i) }

	// The link fabric: campus everywhere, or — asym cells — the
	// wide-area path between the two halves of the grid.
	links := datacat.NewLinks(netsim.CampusGrid())
	if asym {
		for i := 0; i < daSites; i++ {
			for j := 0; j < daSites; j++ {
				if (i < daSites/2) != (j < daSites/2) {
					links.Set(siteName(i), siteName(j), netsim.WideArea())
				}
			}
		}
	}

	// Replica placement and workload shape come from the cell seed and
	// are identical for both runs.
	rng := rand.New(rand.NewSource(seed))
	cat := datacat.New(links)
	for d := 0; d < daDatasets; d++ {
		name := fmt.Sprintf("ds%d", d)
		for placed := 0; placed < replicas; {
			s := siteName(rng.Intn(daSites))
			if cat.HasLocal(s, name) {
				continue // AddReplica dedups; keep drawing until r distinct holders
			}
			if err := cat.AddReplica(name, daDatasetMB<<20, s); err != nil {
				return p, err
			}
			placed++
		}
	}
	wants := make([]string, daJobs)
	for i := range wants {
		wants[i] = fmt.Sprintf("ds%d", rng.Intn(daDatasets))
	}

	run := func(aware bool) (done int, meanTurn, meanStage, localPct float64, err error) {
		sys := core.NewSystem(core.SystemConfig{
			Index:  core.IndexSpec{Latency: 500 * time.Millisecond},
			Seed:   seed,
			Broker: broker.Config{Data: cat, DataAware: aware},
			Sites: []core.SiteSpec{{
				NameFormat: siteNameFormat, Count: daSites, Nodes: daNodes, LRMCycle: 2 * time.Second,
			}},
		})
		sim, b := sys.Sim, sys.Broker
		sim.RunFor(time.Second)

		var handles []*broker.Handle
		for i, ds := range wants {
			h, herr := b.Submit(broker.Request{
				Job: &jdl.Job{
					Executable: "ana", Interactive: true, NodeNumber: 1,
					Access: jdl.ExclusiveAccess, InputData: []string{ds},
				},
				User: fmt.Sprintf("u%02d", i),
				CPU:  2 * time.Minute,
			})
			if herr != nil {
				return 0, 0, 0, 0, herr
			}
			handles = append(handles, h)
			sim.RunFor(time.Minute)
		}
		sim.RunFor(4 * time.Hour)

		turn := metrics.NewSeries("turnaround")
		var stageSum float64
		local := 0
		for i, h := range handles {
			if h.State() != broker.Done {
				return 0, 0, 0, 0, fmt.Errorf("aware=%v: job %d ended %v: %v", aware, i, h.State(), h.Err())
			}
			done++
			turn.AddDuration(h.Turnaround())
			d, ok := cat.StagingTime(h.Site(), []string{wants[i]})
			if !ok {
				return 0, 0, 0, 0, fmt.Errorf("job %d landed on %s where %s is unobtainable", i, h.Site(), wants[i])
			}
			stageSum += d.Seconds()
			if d == 0 {
				local++
			}
		}
		if leaked := b.LeasedCPUs(); leaked != 0 {
			return 0, 0, 0, 0, fmt.Errorf("aware=%v: %d leases leaked", aware, leaked)
		}
		meanTurn = turn.Summarize().Mean
		meanStage = stageSum / float64(done)
		localPct = 100 * float64(local) / float64(done)
		return done, meanTurn, meanStage, localPct, nil
	}

	var err error
	if p.AwareDone, p.AwareMeanTurnSec, p.AwareMeanStageSec, p.AwareLocalPct, err = run(true); err != nil {
		return p, err
	}
	if p.BlindDone, p.BlindMeanTurnSec, p.BlindMeanStageSec, p.BlindLocalPct, err = run(false); err != nil {
		return p, err
	}
	if p.BlindMeanTurnSec > 0 {
		p.SpeedupPct = 100 * (p.BlindMeanTurnSec - p.AwareMeanTurnSec) / p.BlindMeanTurnSec
	}
	return p, nil
}

// RenderDataAware formats the sweep as a results table.
func RenderDataAware(points []DataAwarePoint) string {
	t := metrics.NewTable("Replicas", "Links", "Jobs",
		"Aware turn (s)", "Blind turn (s)", "Speedup",
		"Aware stage (s)", "Blind stage (s)", "Aware local", "Blind local")
	for _, p := range points {
		link := "campus"
		if p.AsymLinks {
			link = "asym"
		}
		t.AddRow(fmt.Sprintf("%d", p.Replicas), link,
			fmt.Sprintf("%d", p.Jobs),
			fmt.Sprintf("%.1f", p.AwareMeanTurnSec),
			fmt.Sprintf("%.1f", p.BlindMeanTurnSec),
			fmt.Sprintf("%.0f%%", p.SpeedupPct),
			fmt.Sprintf("%.1f", p.AwareMeanStageSec),
			fmt.Sprintf("%.1f", p.BlindMeanStageSec),
			fmt.Sprintf("%.0f%%", p.AwareLocalPct),
			fmt.Sprintf("%.0f%%", p.BlindLocalPct))
	}
	return t.String()
}
