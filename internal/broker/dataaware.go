package broker

// Data-aware matchmaking: the estimated staging time of a job's
// InputData is folded into its rank, so "best site" becomes best
// compute rank net of data movement (the Gridbus data-oriented
// scheduling model).
//
// The composition argument, which the equivalence and property tests
// pin down:
//
//   - The penalty is a pure function of (job, site, catalog contents)
//     and enters matchmaking at the pipeline's one evaluate stage,
//     computed afresh every pass, so both registry reads — discovery
//     pages and the delta mirror — derive the same number for the
//     same pair, and the kept sets and final candidate orders stay
//     byte-identical across them.
//   - rank' = rank − staging_seconds preserves the paper's randomized
//     tie-break: ties in rank' are still resolved by seeded noise.
//   - A site strictly dominated on (rank, staging) — no better compute
//     rank AND no cheaper staging, worse on at least one — has
//     strictly lower rank', so data-aware selection can never pick it
//     while the dominating site is available (the optimality property
//     test).
//   - With DataAware off, no catalog, or no InputData the penalty is
//     identically zero and matchmaking reduces to the pre-data rank.

import (
	"crossbroker/internal/jdl"
	"crossbroker/internal/trace"
)

// dataPenalty prices the job's InputData at site: the estimated
// staging time in seconds (the unit Rank expressions use), and whether
// the job is placeable there at all. A dataset with no replica
// anywhere makes every site unplaceable; the caller excludes such
// sites exactly like a failing Requirements clause.
func (b *Broker) dataPenalty(job *jdl.Job, site string) (float64, bool) {
	if !b.cfg.DataAware || b.cfg.Data == nil || len(job.InputData) == 0 {
		return 0, true
	}
	d, ok := b.cfg.Data.StagingTime(site, job.InputData)
	if !ok {
		return 0, false
	}
	return d.Seconds(), true
}

// stageData pays the real staging transfer of the job's InputData to
// the chosen site before cont runs, charged whenever a catalog is
// configured: a data-blind broker moves the same bytes, it just didn't
// plan around them. Zero-cost (local-replica) staging is free and
// unlogged.
func (b *Broker) stageData(h *Handle, siteName string, cont func()) {
	c := b.cfg.Data
	if c == nil || len(h.request.Job.InputData) == 0 {
		cont()
		return
	}
	d, ok := c.StagingTime(siteName, h.request.Job.InputData)
	if !ok || d <= 0 {
		cont()
		return
	}
	b.sim.AfterFunc(d, func() {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.DataStaged, Job: h.ID, Site: siteName, Dur: d, Attempt: h.resub})
		cont()
	})
}
