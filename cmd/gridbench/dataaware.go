package main

import (
	"fmt"
	"runtime"

	"crossbroker/internal/experiments"
)

// dataawareReport is the BENCH_dataaware.json document: data-aware vs
// data-blind placement per replica count × link fabric.
type dataawareReport struct {
	GeneratedBy string                       `json:"generated_by"`
	GoVersion   string                       `json:"go_version"`
	Seed        int64                        `json:"seed"`
	Quick       bool                         `json:"quick"`
	Points      []experiments.DataAwarePoint `json:"points"`
}

// dataaware runs the data-aware placement sweep and writes
// BENCH_dataaware.json. Each cell runs the identical workload twice —
// transfer-cost-ranked and data-blind — on identically seeded grids;
// the command re-asserts the placement contract (no lost jobs, aware
// turnaround strictly better on every cell), renders the table, and
// optionally gates against a committed baseline. Deterministic for a
// fixed seed: two runs produce byte-identical reports.
func dataaware(out, baseline string, quick bool, seed int64, tolerance float64) error {
	pts, err := experiments.DataAwareSweep(experiments.DataAwareConfig{
		Seed: seed, Quick: quick,
	})
	if err != nil {
		return err
	}
	fmt.Println("Data-aware vs data-blind placement — replica count × link fabric")
	fmt.Println(experiments.RenderDataAware(pts))
	for _, p := range pts {
		key := dataawareKey(p)
		if p.AwareDone != p.Jobs || p.BlindDone != p.Jobs {
			return fmt.Errorf("dataaware: %s lost jobs (aware %d, blind %d of %d)",
				key, p.AwareDone, p.BlindDone, p.Jobs)
		}
		if p.AwareMeanTurnSec >= p.BlindMeanTurnSec {
			return fmt.Errorf("dataaware: %s aware turnaround %.1fs not better than blind %.1fs",
				key, p.AwareMeanTurnSec, p.BlindMeanTurnSec)
		}
	}
	rep := dataawareReport{
		GeneratedBy: "gridbench -exp dataaware",
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Quick:       quick,
		Points:      pts,
	}
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if baseline != "" {
		return gateReport(dataawareGate, rep, dataawareRows, baseline, tolerance)
	}
	return nil
}

func dataawareKey(p experiments.DataAwarePoint) string {
	link := "campus"
	if p.AsymLinks {
		link = "asym"
	}
	return fmt.Sprintf("replicas=%d/%s", p.Replicas, link)
}

// dataawareGate gates the aware-over-blind speedup per cell: shrinking
// by more than tolerance (of the baseline speedup) fails.
var dataawareGate = gate{exp: "dataaware", noun: "cell", higherIsBetter: true,
	width: 20, values: "speedup %5.1f%% -> %5.1f%%"}

func dataawareRows(rep dataawareReport) []benchRow {
	rows := make([]benchRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = benchRow{dataawareKey(p), p.SpeedupPct}
	}
	return rows
}
