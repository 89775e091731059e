package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/faultinject"
	"crossbroker/internal/federation"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/trace"
)

// FederationSweep measures broker federation under chaos: cells sweep
// topology (peer mesh over a shared grid vs disjoint grids joined by
// a supervisor relay) × offload headroom K × fault rate, with broker
// crashes, peer-link outages, site crashes and split-brain infosys
// partitions injected from the deterministic fault layer. Every cell
// checks the federation's safety contract before reporting: the merged
// multi-broker event log passes the trace invariant checker (at most
// one Started per attempt — no double allocations — and exactly one
// terminal state per job), no broker leaks leases, and no transfer
// lease stays open after drain and reconciliation. A fixed seed makes
// two runs byte-identical.

// FederationPoint is one cell of the sweep.
type FederationPoint struct {
	// Topology is "mesh" (two peers, one shared grid with a contended
	// site) or "super" (disjoint grids joined by a relay supervisor).
	Topology string `json:"topology"`
	// K is the offload headroom: jobs ship when pending depth exceeds
	// LeasedCPUs+K.
	K int `json:"k"`
	// FaultRate is the injected broker-crash/peer-outage rate per hour
	// (site crashes and partitions are scaled off it).
	FaultRate float64 `json:"fault_rate_per_hour"`
	// Submitted, Done and Failed count the workload; every job ends in
	// exactly one terminal state, grid-wide.
	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	// FailedBy splits Failed by reason (Tally.FailedBy).
	FailedBy map[string]int `json:"failed_by,omitempty"`
	// Offloads, Accepted and Orphaned count transfer-protocol events
	// in the merged trace (Orphaned covers lost requests, lost acks
	// and peer-crash reclaims).
	Offloads int `json:"offloads"`
	Accepted int `json:"accepted"`
	Orphaned int `json:"orphaned"`
	// Migrated counts jobs that reached their terminal state on a
	// broker other than the one they were submitted to.
	Migrated int `json:"migrated"`
	// Resubmissions is the failure-driven resubmission total.
	Resubmissions int `json:"resubmissions"`
	// GoodputPct is Done/Submitted.
	GoodputPct float64 `json:"goodput_pct"`
	// CommitRaces is the largest number of overlapping 2PC commit
	// windows any site observed — >1 proves brokers raced a site and
	// the site's commit window arbitrated.
	CommitRaces int `json:"commit_races"`
	// LeakedLeases sums every broker's live lease count after drain —
	// zero when lease accounting survived the chaos.
	LeakedLeases int `json:"leaked_leases"`
	// OpenTransfers sums unresolved transfer leases after drain and
	// reconciliation — zero when at-most-once bookkeeping closed.
	OpenTransfers int `json:"open_transfers"`
	// Injected counts applied fault events.
	Injected int `json:"injected"`
	// TraceEvents is the merged event-log length (a cheap determinism
	// fingerprint that survives JSON round-trips).
	TraceEvents int `json:"trace_events"`
	// Trace is the cell's merged multi-broker log when Traced is set;
	// excluded from JSON (export via trace.WriteJSONL).
	Trace trace.Trace `json:"-"`
}

// FederationConfig parametrizes the sweep.
type FederationConfig struct {
	// Topologies to sweep (default mesh and super).
	Topologies []string
	// Ks are the offload headrooms to sweep (default 1, 4).
	Ks []int
	// Rates are the broker-fault rates per hour (default 0, 1, 4).
	Rates []float64
	// Horizon is the fault window; the grid then heals and drains
	// (default 4h).
	Horizon time.Duration
	// Seed drives the fault schedules and broker randomization.
	Seed int64
	// Workers bounds concurrent cells; 0 uses one per CPU.
	Workers int
	// Quick shrinks the sweep for CI smoke runs.
	Quick bool
	// Traced attaches each cell's merged event log to its point.
	Traced bool
}

func (c *FederationConfig) setDefaults() {
	if len(c.Topologies) == 0 {
		c.Topologies = []string{"mesh", "super"}
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 4}
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 1, 4}
	}
	if c.Horizon <= 0 {
		c.Horizon = 4 * time.Hour
	}
	// Quick keeps a strict subset of the full sweep's cells (same Ks,
	// rates and horizon) so a -quick run compares cell-for-cell against
	// the committed full report.
	if c.Quick {
		c.Ks = []int{1}
		c.Rates = []float64{0, 4}
	}
}

// FederationSweep runs one independent simulation per cell.
func FederationSweep(cfg FederationConfig) ([]FederationPoint, error) {
	cfg.setDefaults()
	type cell struct {
		topo string
		k    int
		rate float64
	}
	var cells []cell
	for _, topo := range cfg.Topologies {
		for _, k := range cfg.Ks {
			for _, rate := range cfg.Rates {
				cells = append(cells, cell{topo, k, rate})
			}
		}
	}
	return runCells(len(cells), cfg.Workers, func(i int) (FederationPoint, error) {
		c := cells[i]
		// The per-cell seed hashes the cell coordinates, not the cell
		// index, so a -quick run (a subset of the full grid) reproduces
		// the full sweep's numbers cell-for-cell and the baseline gate
		// compares like with like.
		h := fnv.New32a()
		fmt.Fprintf(h, "%s/k=%d/rate=%g", c.topo, c.k, c.rate)
		p, err := federationPoint(c.topo, c.k, c.rate, int64(h.Sum32()), cfg)
		if err != nil {
			return p, fmt.Errorf("experiments: federation %s k=%d rate=%.2g/h: %w", c.topo, c.k, c.rate, err)
		}
		return p, nil
	})
}

// fedMember is one broker of a federation cell with count private
// sites of nodes nodes each.
func fedMember(name string, seed int64, count, nodes int, index *core.IndexSpec) core.MemberSpec {
	return core.MemberSpec{Name: name, Seed: seed, Index: index, Sites: []core.SiteSpec{
		{NameFormat: name + "-s%02d", Count: count, Nodes: nodes, LRMCycle: 2 * time.Second},
	}}
}

func federationPoint(topo string, k int, rate float64, idx int64, cfg FederationConfig) (FederationPoint, error) {
	p := FederationPoint{Topology: topo, K: k, FaultRate: rate}
	seed := cfg.Seed + idx
	// The same recovery posture as the single-broker chaos sweep, plus
	// lease jitter so federated expiries desynchronize.
	grid := core.SystemConfig{Broker: RecoveryConfig(), Trace: true}
	grid.Broker.LeaseJitter = 0.25
	fcfg := federation.Config{K: k}
	switch topo {
	case "mesh":
		// One shared grid: each peer has a private site plus one site
		// both register — the contended-lease arena.
		grid.Sites = []core.SiteSpec{{Name: "shared-s00", Nodes: 1, LRMCycle: 2 * time.Second}}
		grid.Members = []core.MemberSpec{fedMember("bA", seed, 1, 1, nil), fedMember("bB", seed+1000, 1, 4, nil)}
	case "super":
		// Disjoint grids, each on its own index, joined by a pure relay
		// supervisor.
		own := &core.IndexSpec{}
		grid.Members = []core.MemberSpec{fedMember("bA", seed, 2, 1, own), fedMember("bB", seed+1000, 2, 4, own)}
		fcfg.Supervisor = "sup"
	default:
		return p, fmt.Errorf("unknown topology %q", topo)
	}
	sys := core.NewSystem(grid)
	sim := sys.Sim
	fed := federation.New(sys, fcfg)

	// The fault layer: broker crashes and peer-link outages drive the
	// axis; site crashes and split-brain partitions are scaled off it.
	inj := sys.NewFaultInjector(seed)
	inj.SetInfosys(fed)
	inj.SetBrokerFaulter(fed, "bA", "bB")
	inj.Start(faultinject.Schedule{
		Seed:    seed,
		Horizon: cfg.Horizon,
		Rates: faultinject.Rates{
			BrokerCrashesPerHour: rate, MeanBrokerDowntime: 10 * time.Minute,
			PeerOutagesPerHour: rate, MeanPeerOutage: 3 * time.Minute,
			SiteCrashesPerHour: rate / 2, MeanDowntime: 5 * time.Minute,
			PartitionsPerHour: rate / 4, MeanPartition: 2 * time.Minute,
		},
	})

	// The workload arrives in two waves per the site-queue commit
	// semantics: the first fills bA's nodes and LRM queues, the second
	// finds them full, parks in the broker queue and builds the
	// pressure the offload rule acts on. bB stays lightly loaded so it
	// is the natural destination.
	var refs []*federation.JobRef
	submit := func(node string, n int, cpu time.Duration, gap time.Duration) error {
		for i := 0; i < n; i++ {
			jr, err := fed.Submit(node, broker.Request{
				Job:  &jdl.Job{Executable: "batch", NodeNumber: 1},
				User: fmt.Sprintf("%s-u%02d", node, i),
				CPU:  cpu,
			})
			if err != nil {
				return err
			}
			refs = append(refs, jr)
			sim.RunFor(gap)
		}
		return nil
	}
	if err := submit("bA", 6, 30*time.Minute, 15*time.Second); err != nil {
		return p, err
	}
	if err := submit("bB", 2, 30*time.Minute, 15*time.Second); err != nil {
		return p, err
	}
	sim.RunFor(time.Minute)
	if err := submit("bA", 6, 3*time.Minute, 15*time.Second); err != nil {
		return p, err
	}

	// Ride out the fault window, then drain until every job is
	// terminal somewhere in the federation.
	sim.RunFor(cfg.Horizon)
	core.Drain(sys, refs, 15*time.Minute, 12)
	fed.Reconcile()

	var tally Tally
	for _, jr := range refs {
		tally.Add(jr.Handle())
		if origin := strings.SplitN(jr.ID, "-", 2)[0]; jr.Owner() != origin {
			p.Migrated++
		}
	}
	if err := tally.pendingErr(); err != nil {
		return p, err
	}
	p.Submitted, p.Done, p.Failed, p.FailedBy = len(refs), tally.Done, tally.Failed, tally.FailedBy
	p.Resubmissions, p.GoodputPct = tally.Resubmissions, tally.Summary().GoodputPct
	for _, st := range sys.Sites {
		if mi := st.Stats().MaxInflight; mi > p.CommitRaces {
			p.CommitRaces = mi
		}
	}
	for _, n := range fed.Nodes() {
		if n.Broker() != nil {
			p.LeakedLeases += n.Broker().LeasedCPUs()
		}
		p.OpenTransfers += n.OpenTransfers()
	}
	for _, line := range inj.Applied() {
		if strings.HasSuffix(line, " injected") {
			p.Injected++
		}
	}

	// The safety contract, checked on the merged multi-broker log: one
	// lifecycle per job, at most one Started per attempt (no double
	// allocation), balanced leases, paired transfer events.
	var traces []trace.Trace
	for _, n := range fed.Nodes() {
		traces = append(traces, n.Trace().Snapshot(n.Name()))
	}
	traces = append(traces, sys.Tracer.Snapshot("faults"))
	mergedTrace := trace.MergeByTime(traces)
	if vs := trace.CheckComplete(mergedTrace.Events); len(vs) != 0 {
		return p, fmt.Errorf("merged trace: %d invariant violations, first: %s", len(vs), vs[0])
	}
	for _, e := range mergedTrace.Events {
		switch e.Kind {
		case trace.OffloadSent:
			p.Offloads++
		case trace.OffloadAccepted:
			p.Accepted++
		case trace.OffloadOrphaned:
			p.Orphaned++
		}
	}
	p.TraceEvents = len(mergedTrace.Events)
	if p.LeakedLeases != 0 {
		return p, fmt.Errorf("leaked %d leases grid-wide", p.LeakedLeases)
	}
	if p.OpenTransfers != 0 {
		return p, fmt.Errorf("%d transfer leases still open after reconcile", p.OpenTransfers)
	}
	if cfg.Traced {
		mergedTrace.Label = fmt.Sprintf("%s/k=%d/rate=%g", topo, k, rate)
		p.Trace = mergedTrace
	}
	return p, nil
}

// RenderFederation formats the sweep as a results table.
func RenderFederation(points []FederationPoint) string {
	t := metrics.NewTable("Topology", "K", "Faults/h", "Jobs", "Done", "Failed",
		"Offloads", "Orphaned", "Migrated", "Races", "Goodput", "Leaked", "Open", "Injected")
	for _, p := range points {
		t.AddRow(p.Topology,
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.2g", p.FaultRate),
			fmt.Sprintf("%d", p.Submitted),
			fmt.Sprintf("%d", p.Done),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%d", p.Offloads),
			fmt.Sprintf("%d", p.Orphaned),
			fmt.Sprintf("%d", p.Migrated),
			fmt.Sprintf("%d", p.CommitRaces),
			fmt.Sprintf("%.0f%%", p.GoodputPct),
			fmt.Sprintf("%d", p.LeakedLeases),
			fmt.Sprintf("%d", p.OpenTransfers),
			fmt.Sprintf("%d", p.Injected))
	}
	return t.String()
}
