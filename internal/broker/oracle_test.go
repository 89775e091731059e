package broker

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// The whole-snapshot selection pass, kept as the test oracle. It is
// the paper's selection step written the naive way (gc3pie's
// select_resource style): take one snapshot of every published record,
// filter it with the *interpreted* Requirements AST over a per-record
// attribute map, rank with the interpreted Rank AST, sort, truncate to
// TopK, probe each survivor in name order and re-rank on the fresh
// answer. It shares no compiled predicate, flat vector, page, cursor,
// subscription or heap code with the pipeline it checks — only the
// broker state both read (registered sites, breaker, leases, catalog)
// and the seeded noise function that defines the tie-break.

// oracleMatch is one site the oracle kept.
type oracleMatch struct {
	rec    infosys.SiteRecord
	st     *site.Site
	pen    float64 // staging seconds
	prelim float64 // interpreted Rank on published state, minus pen
	noise  float64
}

// useOracle routes every matchmaking pass of b through the oracle.
func useOracle(b *Broker) *Broker {
	b.matchOracle = func(h *Handle, cont func([]candidate)) {
		oraclePass(b, h, cont)
	}
	return b
}

// oracleRecords is the oracle's discovery: every published record.
func oracleRecords(b *Broker) []infosys.SiteRecord {
	return b.cfg.Info.(interface{ SnapshotImmediate() *infosys.Snapshot }).SnapshotImmediate().Records()
}

// oracleAttrs is the record's attribute map for the interpreted
// predicates: its static attributes plus the given queue state.
func oracleAttrs(rec infosys.SiteRecord, free, queued int) map[string]any {
	m := make(map[string]any, len(rec.Attrs)+3)
	for k, v := range rec.Attrs {
		m[k] = v
	}
	m[infosys.AttrTotalCPUs] = rec.TotalCPUs
	m[infosys.AttrFreeCPUs] = free
	m[infosys.AttrQueuedJobs] = queued
	return m
}

// oracleRank evaluates the interpreted Rank (free CPUs without one)
// over the record's attributes with the given queue state.
func oracleRank(job *jdl.Job, rec infosys.SiteRecord, free, queued int) (float64, error) {
	if job.Rank == nil {
		return float64(free), nil
	}
	return job.Rank.EvalNumber(oracleAttrs(rec, free, queued))
}

func oraclePass(b *Broker, h *Handle, cont func([]candidate)) {
	h.state = Matching
	job := h.request.Job
	dstart := b.sim.Now()
	selectFrom := func() {
		recs := oracleRecords(b)
		h.Phases.Discovery = b.sim.Since(dstart)
		sstart := b.sim.Now()
		nonce := b.rng.Uint64()
		h.scanned, h.unavailable = len(recs), 0

		var kept []oracleMatch
		for _, rec := range recs {
			e := b.sites[rec.Name]
			if e == nil {
				continue
			}
			if hl := &e.health; sstart.Before(hl.quarantinedUntil) || hl.probing {
				h.unavailable++
				continue
			}
			st := e.st
			if job.Requirements != nil {
				if ok, err := job.Requirements.EvalBool(oracleAttrs(rec, rec.FreeCPUs, rec.QueuedJobs)); err != nil || !ok {
					continue
				}
			}
			pen, ok := b.dataPenalty(job, rec.Name)
			if !ok {
				continue
			}
			m := oracleMatch{rec: rec, st: st, pen: pen}
			if !b.cfg.Deterministic {
				m.noise = selectionNoise(nonce, rec.Name)
			}
			r, err := oracleRank(job, rec, rec.FreeCPUs, rec.QueuedJobs)
			if err != nil {
				if b.cfg.TopK > 0 {
					continue
				}
				r = 0
			}
			m.prelim = r - pen
			kept = append(kept, m)
		}
		if k := b.cfg.TopK; k > 0 && len(kept) > k {
			sort.Slice(kept, func(i, j int) bool {
				a, c := kept[i], kept[j]
				if a.prelim != c.prelim {
					return a.prelim > c.prelim
				}
				if a.noise != c.noise {
					return a.noise < c.noise
				}
				return a.rec.Name < c.rec.Name
			})
			kept = kept[:k]
		}
		h.peak = len(kept)
		sort.Slice(kept, func(i, j int) bool { return kept[i].rec.Name < kept[j].rec.Name })
		for _, m := range kept {
			b.claimHalfOpen(m.rec.Name) // the one probe-back of a cooled-down breaker
		}

		var cands []candidate
		var probe func(i int)
		probe = func(i int) {
			if i == len(kept) {
				sort.Slice(cands, func(i, j int) bool {
					a, c := cands[i], cands[j]
					if a.rank != c.rank {
						return a.rank > c.rank
					}
					if a.noise != c.noise {
						return a.noise < c.noise
					}
					return a.site.Name() < c.site.Name()
				})
				h.Phases.Selection += b.sim.Since(sstart)
				cont(cands)
				return
			}
			m := kept[i]
			m.st.QueryStateAsync(func(free, queued int, ok bool) {
				defer probe(i + 1)
				if !ok {
					b.noteSiteFailure(m.rec.Name)
					h.unavailable++
					return
				}
				b.noteProbeAnswered(m.rec.Name)
				if free -= b.activeLeases(m.rec.Name); free < 0 {
					free = 0
				}
				r, err := oracleRank(job, m.rec, free, queued)
				if err != nil {
					return
				}
				cands = append(cands, candidate{site: m.st, free: free, queued: queued, rank: r - m.pen, noise: m.noise})
			})
		}
		probe(0)
	}
	b.sim.AfterFunc(b.cfg.Info.QueryLatency(), selectFrom)
}

// passResult is everything the equivalence property compares about
// one pass: the ordered candidates, the pass counters, and which sites
// the pass left with a half-open probe claim.
type passResult struct {
	cands                      []string
	scanned, unavailable, peak int
	probing                    []string
}

func (r passResult) String() string {
	return fmt.Sprintf("scanned=%d unavailable=%d peak=%d probing=%v cands=%v",
		r.scanned, r.unavailable, r.peak, r.probing, r.cands)
}

func runPassResult(t *testing.T, sim *simclock.Sim, b *Broker, job *jdl.Job) passResult {
	t.Helper()
	h := &Handle{request: Request{Job: job}}
	var cands []candidate
	done := false
	b.matchPass(h, func(c []candidate) { cands, done = c, true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("matchmaking pass did not complete")
	}
	res := passResult{scanned: h.scanned, unavailable: h.unavailable, peak: h.peak}
	for _, c := range cands {
		res.cands = append(res.cands, candLine(c))
	}
	for name, e := range b.sites {
		if e.health.probing {
			res.probing = append(res.probing, name)
		}
	}
	sort.Strings(res.probing)
	return res
}

// propSite is one site of a random property-test grid.
type propSite struct {
	name  string
	nodes int
	attrs map[string]any
}

// propGrid is one seeded random scenario, applied identically to every
// arm: the sites, stale records published for sites no broker
// registered, the breaker state to impose, a catalog and a job.
type propGrid struct {
	sites       []propSite
	stale       []infosys.SiteRecord
	cooled      []string // tripped, cooldown over before the first pass: half-open
	inFlight    []string // half-open with a probe-back still unanswered
	quarantined []string // tripped, inside the cooldown at the first pass, half-open at the second
	cat         *datacat.Catalog
	job         *jdl.Job
	jobSrc      string
	churn       []infosys.SiteRecord // republished between the two passes
}

func randomPropGrid(t *testing.T, rng *rand.Rand) propGrid {
	t.Helper()
	var g propGrid
	n := 8 + rng.Intn(17)
	attrsFor := func() map[string]any {
		a := map[string]any{
			"Arch": []string{"i686", "i686", "ppc"}[rng.Intn(3)], "OS": "linux",
			"MemoryMB": 256 + 64*rng.Intn(4), "Preferred": 1 + rng.Intn(3),
		}
		if rng.Intn(4) != 0 {
			a["Score"] = rng.Intn(4) // absent on a quarter: Rank = other.Score errors there
		}
		return a
	}
	for i := 0; i < n; i++ {
		g.sites = append(g.sites, propSite{name: fmt.Sprintf("site%02d", i), nodes: 1 + rng.Intn(3), attrs: attrsFor()})
	}
	name := func() string { return g.sites[rng.Intn(n)].name }
	for i, k := 0, rng.Intn(4); i < k; i++ {
		g.stale = append(g.stale, infosys.SiteRecord{
			Name: fmt.Sprintf("ghost%d", i), TotalCPUs: 2, FreeCPUs: 2, Attrs: attrsFor(),
		})
	}
	for i, k := 0, rng.Intn(5); i < k; i++ {
		s := g.sites[rng.Intn(n)]
		g.churn = append(g.churn, infosys.SiteRecord{
			Name: s.name, TotalCPUs: s.nodes, FreeCPUs: rng.Intn(s.nodes + 1), Attrs: attrsFor(),
		})
	}
	for i, k := 0, rng.Intn(4); i < k; i++ {
		g.quarantined = append(g.quarantined, name())
	}
	for i, k := 0, rng.Intn(3); i < k; i++ {
		g.cooled = append(g.cooled, name())
	}
	for i, k := 0, rng.Intn(2); i < k; i++ {
		g.inFlight = append(g.inFlight, name())
	}
	links := datacat.NewLinks(netsim.CampusGrid())
	links.SetBoth(name(), name(), netsim.WideArea())
	g.cat = datacat.New(links)
	for _, d := range []string{"cal.db", "events.raw"} {
		size := int64(1+rng.Intn(8)) << 27
		for r, k := 0, 1+rng.Intn(3); r < k; r++ {
			if err := g.cat.AddReplica(d, size, name()); err != nil {
				t.Fatal(err)
			}
		}
	}

	src := `Executable = "iapp"; JobType = {"interactive", "sequential"};` + "\n"
	if rng.Intn(4) != 0 {
		src += `Requirements = other.Arch == "i686" && other.MemoryMB >= 320;` + "\n"
	}
	switch rng.Intn(4) {
	case 0: // no Rank: free CPUs
	case 1:
		src += "Rank = other.Score;\n" // errors where Score is absent
	case 2:
		src += "Rank = other.Preferred;\n" // wide tie groups
	default:
		src += "Rank = other.Preferred * 2 + other.FreeCPUs - other.QueuedJobs;\n"
	}
	switch rng.Intn(6) {
	case 0:
		src += `InputData = {"cal.db", "nowhere.dat"};` + "\n" // unobtainable anywhere
	case 1, 2:
		src += `InputData = {"cal.db", "events.raw"};` + "\n"
	}
	g.job, g.jobSrc = mustParseJob(t, src), src
	return g
}

// build stands one arm's broker up over the scenario and imposes its
// breaker state.
func (g propGrid) build(cfg Config, info *infosys.Service, sim *simclock.Sim) *Broker {
	cfg.Sim, cfg.Info, cfg.Data, cfg.DataAware = sim, info, g.cat, true
	// Each pass is followed by an hour of simulated time, so a breaker
	// tripped now is closed for the first pass and half-open for the
	// second.
	cfg.QuarantineCooldown = 30 * time.Minute
	b := New(cfg)
	for _, s := range g.sites {
		b.RegisterSite(site.New(sim, site.Config{
			Name: s.name, Nodes: s.nodes, Network: netsim.CampusGrid(), Costs: site.DefaultCosts(),
			PublishInterval: 10000 * time.Hour, Attrs: s.attrs,
		}))
	}
	for _, rec := range g.stale {
		if err := info.Publish(rec); err != nil {
			panic(err)
		}
	}
	sim.RunFor(time.Second) // land the initial publishes
	for _, name := range append(g.cooled, g.inFlight...) {
		b.quarantineNow(name)
	}
	sim.RunFor(time.Hour)
	for _, name := range g.inFlight {
		b.sites[name].health.probing = true
	}
	for _, name := range g.quarantined {
		b.quarantineNow(name)
	}
	return b
}

// TestMatchPipelineAgreesWithOracle is the seeded equivalence property
// over random grids: stale records, per-pass exclusions, quarantined,
// cooled-down and probe-in-flight sites, Rank-error sites with and without a TopK bound, unobtainable
// datasets and registry churn between passes. On every grid the
// oracle, the page scan (sharded, small pages), and the scan of a
// delta-subscribed broker's pinned snapshots must agree candidate for
// candidate, in the pass counters, and in which sites each pass leaves
// holding a half-open probe claim.
func TestMatchPipelineAgreesWithOracle(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(4200 + trial))
		g := randomPropGrid(t, rng)
		shards, page, depth := 1+rng.Intn(8), 1+rng.Intn(6), rng.Intn(3)*4
		for _, topk := range []int{0, 1 + rng.Intn(6)} {
			type arm struct {
				name string
				run  func() [2]passResult
			}
			passes := func(b *Broker, sim *simclock.Sim, info *infosys.Service) [2]passResult {
				var out [2]passResult
				out[0] = runPassResult(t, sim, b, g.job)
				for _, rec := range g.churn {
					if err := info.Publish(rec); err != nil {
						t.Fatal(err)
					}
				}
				out[1] = runPassResult(t, sim, b, g.job)
				return out
			}
			with := func(cfg Config, shards int, index func(*infosys.Service), oracle bool) func() [2]passResult {
				return func() [2]passResult {
					sim := simclock.NewSim(time.Time{})
					info := infosys.NewSharded(sim, 500*time.Millisecond, shards)
					if index != nil {
						index(info)
					}
					cfg.Seed, cfg.TopK = 2006+trial, topk
					b := g.build(cfg, info, sim)
					if oracle {
						useOracle(b)
					}
					return passes(b, sim, info)
				}
			}
			arms := []arm{
				{"oracle", with(Config{}, 1, nil, true)},
				{"scan", with(Config{PageSize: page}, shards, nil, false)},
				{"delta", with(Config{PageSize: page}, shards, subscribable(depth), false)},
			}
			want := arms[0].run()
			for _, a := range arms[1:] {
				got := a.run()
				for p := range got {
					if got[p].String() != want[p].String() {
						t.Fatalf("trial %d topk=%d pass %d (shards=%d page=%d depth=%d):\n  %s: %s\n  oracle: %s\n  job: %s",
							trial, topk, p, shards, page, depth, a.name, got[p], want[p], g.jobSrc)
					}
				}
			}
		}
	}
}
