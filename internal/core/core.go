// Package core assembles the complete CrossGrid job-management stack
// described by the paper into two ready-to-use entry points:
//
//   - System: a virtual-time grid — sites with gatekeepers and local
//     batch queues, a Globus-MDS-like information service, fair-share
//     accounting, glide-in agents and the CrossBroker — for
//     scheduling studies and the Table I experiment.
//   - Session: a real-time interactive session — an unmodified
//     application under interposition, a Console Agent per subjob, a
//     Console Shadow on the user side, GSI-secured channels over a
//     shaped network — for the interactivity path of Figures 6/7.
//
// Every virtual-time grid in the module — the examples, crossbroker,
// and each gridbench experiment driver — is a SystemConfig literal
// built by NewSystem; NewSites is the one function that loops over
// site.New (DESIGN.md "Grid assembly").
package core

import (
	"fmt"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/broker"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/faultinject"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// SiteSpec describes one site of a simulated grid, or — with
// NameFormat set — a run of Count sites stamped from it, so a
// 50,000-site grid is one spec, not a 50,000-element literal.
type SiteSpec struct {
	// Name is the site name (unique).
	Name string
	// NameFormat, when set, makes the spec a run: Count sites, each named
	// by formatting its index in the grid (earlier specs count), e.g.
	// "s%02d". Vary, when set, then adjusts the copy for grid index i:
	// per-site attributes, an elastic backend on every other site.
	NameFormat string
	Count      int
	Vary       func(i int, s *SiteSpec)
	// Nodes is the worker-node count.
	Nodes int
	// Network is the path between the broker and the site; the zero
	// value is the campus network.
	Network netsim.Profile
	// Attrs optionally overrides the matchmaking attributes.
	Attrs map[string]any
	// LRMCycle is the local scheduler's pass interval (site default
	// when zero).
	LRMCycle time.Duration
	// PublishInterval is how often the site republishes its record
	// (site default when zero).
	PublishInterval time.Duration
	// Elastic, when set, swaps the batch queue for an elastic pool.
	Elastic *batch.ElasticConfig
}

// IndexSpec describes the information index.
type IndexSpec struct {
	// Latency is the one-way latency to the index (default 250 ms; the
	// paper's index lived in Germany).
	Latency time.Duration
	// Shards splits the registry into hash shards (default 1, the
	// classic monolithic index). Thousands-of-sites grids shard so a
	// site's publish invalidates only its own shard's snapshot; the
	// broker then pages discovery shard by shard (see Broker.PageSize
	// for the page size).
	Shards int
	// DeltaLogDepth enables per-shard delta logs of this depth for
	// delta-subscribed brokers (Broker.Incremental); 0 leaves them off,
	// so every epoch-advancing poll re-pins a shard snapshot.
	DeltaLogDepth int
	// ShardLink puts each shard behind its own network link, charging
	// subscription answers for what they carry; the zero value keeps
	// the flat Latency.
	ShardLink netsim.Profile
}

// SystemConfig configures a simulated grid.
type SystemConfig struct {
	// Sites lists the grid sites; an empty list creates a default
	// 4-site campus grid with 4 nodes each.
	Sites []SiteSpec
	// Index describes the information index.
	Index IndexSpec
	// Seed drives randomized selection.
	Seed int64
	// Trace enables system-wide event tracing: NewSystem creates one
	// trace.Tracer on the simulation clock and threads it through
	// every component — broker, sites, glide-in agents, the index's
	// delta logs and (via NewFaultInjector) fault injection — so a
	// whole run exports as one timeline, exposed as System.Tracer.
	// Pass System.Tracer as SessionConfig.Trace to interleave a console
	// session's events. Supplying Broker.Trace directly also works;
	// System.Tracer then aliases it.
	Trace bool
	// Broker optionally tunes the broker beyond defaults; Sim, Info,
	// Fair and Seed are filled in by NewSystem.
	Broker broker.Config
	// FairShare enables fair-share accounting with the given tuning
	// (zero values use defaults); nil builds a grid with no manager and
	// no accounting tick.
	FairShare *fairshare.Config
}

// System is an assembled virtual-time grid.
type System struct {
	// Sim is the simulation clock; advance it with Run/Step.
	Sim *simclock.Sim
	// Info is the information service.
	Info *infosys.Service
	// Fair is the fair-share manager (already started); nil when the
	// grid was configured without one.
	Fair *fairshare.Manager
	// Broker is the CrossBroker.
	Broker *broker.Broker
	// Sites are the grid sites, in specification order.
	Sites []*site.Site
	// Tracer is the system-wide event tracer (nil when tracing is
	// off); its Events/WriteJSONL export the unified timeline.
	Tracer *trace.Tracer
}

// NewSystem builds a grid per cfg. The construction order is part of
// the contract — simulation clock, index, fair share (started), tracer,
// broker, then each site in specification order, registered as soon as
// it exists — because it fixes the (timestamp, seq) of every start-up
// event, and with it every fixed-seed trace.
func NewSystem(cfg SystemConfig) *System {
	if len(cfg.Sites) == 0 {
		cfg.Sites = []SiteSpec{{NameFormat: "site%02d", Count: 4, Nodes: 4}}
	}
	sim := simclock.NewSim(time.Time{})
	sys := &System{Sim: sim, Info: NewIndex(sim, cfg.Index)}

	bcfg := cfg.Broker
	if cfg.FairShare != nil {
		sys.Fair = fairshare.New(sim, *cfg.FairShare)
		sys.Fair.Start()
		bcfg.Fair = sys.Fair
	}
	if cfg.Trace && bcfg.Trace == nil {
		bcfg.Trace = trace.New(sim.Now)
	}
	sys.Tracer = bcfg.Trace
	// The index's tracer records delta-log publishes only; an index
	// without delta logs never emits.
	sys.Info.SetTracer(sys.Tracer)
	bcfg.Sim = sim
	bcfg.Info = sys.Info
	bcfg.Seed = cfg.Seed
	sys.Broker = broker.New(bcfg)
	sys.Sites = NewSites(sim, cfg.Sites, sys.Broker.RegisterSite)
	return sys
}

// NewIndex builds an information index on sim.
func NewIndex(sim *simclock.Sim, spec IndexSpec) *infosys.Service {
	if spec.Latency <= 0 {
		spec.Latency = 250 * time.Millisecond
	}
	info := infosys.NewSharded(sim, spec.Latency, spec.Shards)
	if spec.DeltaLogDepth > 0 {
		info.SetDeltaLog(spec.DeltaLogDepth)
	}
	if spec.ShardLink != (netsim.Profile{}) {
		info.SetShardLink(spec.ShardLink)
	}
	return info
}

// NewSites builds the sites specs describe, in order, handing each to
// register (a broker's RegisterSite; nil to register later) before the
// next is built. It is the only place outside benchmark/ that loops
// over site.New.
func NewSites(sim *simclock.Sim, specs []SiteSpec, register func(*site.Site)) []*site.Site {
	var out []*site.Site
	for _, spec := range specs {
		run, n := spec.NameFormat != "", 1
		if run {
			n = spec.Count
		}
		for ; n > 0; n-- {
			s := spec
			if run {
				s.Name = fmt.Sprintf(spec.NameFormat, len(out))
				if spec.Vary != nil {
					spec.Vary(len(out), &s)
				}
			}
			if s.Network == (netsim.Profile{}) {
				s.Network = netsim.CampusGrid()
			}
			st := site.New(sim, site.Config{
				Name:            s.Name,
				Nodes:           s.Nodes,
				Network:         s.Network,
				Costs:           site.DefaultCosts(),
				Attrs:           s.Attrs,
				LRMCycle:        s.LRMCycle,
				PublishInterval: s.PublishInterval,
				Elastic:         s.Elastic,
			})
			if register != nil {
				register(st)
			}
			out = append(out, st)
		}
	}
	return out
}

// NewFaultInjector builds a fault injector wired to the whole system:
// every site, the information service (partitions), the broker's agent
// registry (agent kills) and the system tracer. Call inj.Start with a
// schedule to begin injecting; the injected faults land on the same
// timeline as the broker's and sites' events. A multi-broker grid
// assembles a System of its shared parts (clock, sites, fault tracer),
// leaves Info and Broker nil, and registers its own partition and
// broker-fault hooks on the result.
func (s *System) NewFaultInjector(seed int64) *faultinject.Injector {
	inj := faultinject.New(s.Sim, seed)
	for _, st := range s.Sites {
		inj.AddSite(st)
	}
	if s.Info != nil {
		inj.SetInfosys(s.Info)
	}
	if s.Broker != nil {
		inj.SetAgentKiller(s.Broker)
	}
	inj.SetTracer(s.Tracer)
	return inj
}

// SubmitJDL parses a JDL document and submits the job for user,
// modeling cpu of per-node CPU demand.
func (s *System) SubmitJDL(src, user string, cpu time.Duration) (*broker.Handle, error) {
	job, err := jdl.ParseJob(src)
	if err != nil {
		return nil, err
	}
	return s.Broker.Submit(broker.Request{Job: job, User: user, CPU: cpu})
}

// Submit forwards a fully built request to the broker.
func (s *System) Submit(req broker.Request) (*broker.Handle, error) {
	return s.Broker.Submit(req)
}

// Run advances the simulation by d.
func (s *System) Run(d time.Duration) { s.Sim.RunFor(d) }

// Job is a submission whose lifecycle state can be polled: a
// *broker.Handle, or a federation's *JobRef.
type Job interface{ State() broker.State }

// Drain advances the simulation in step-sized chunks until every job
// is Done or Failed, checking before each chunk and once more after
// the last of at most rounds chunks, and returns the jobs still not
// terminal. (A function rather than a System method only because Go
// methods cannot take type parameters.)
func Drain[J Job](s *System, jobs []J, step time.Duration, rounds int) (pending []J) {
	for spent := 0; ; spent++ {
		pending = pending[:0]
		for _, j := range jobs {
			if st := j.State(); st != broker.Done && st != broker.Failed {
				pending = append(pending, j)
			}
		}
		if allTerminal := len(pending) == 0; allTerminal || spent >= rounds {
			return pending
		}
		s.Sim.RunFor(step)
	}
}

// RunUntilDone advances the simulation until the handle completes or
// maxSim elapses, reporting whether it completed.
func (s *System) RunUntilDone(h *broker.Handle, maxSim time.Duration) bool {
	return len(Drain(s, []*broker.Handle{h}, time.Second, int(maxSim/time.Second))) == 0
}
