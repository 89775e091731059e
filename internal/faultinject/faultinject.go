// Package faultinject is the simulator's deterministic fault layer:
// a seed-driven scheduler (running on simclock) that injects the
// failures a production grid suffers — site crashes and restarts,
// wedged gatekeepers, stalled local resource managers, glide-in agent
// deaths, information-system partitions and network outages — from a
// declarative Schedule that is either an explicit event list, a set
// of Poisson rates, or both.
//
// Everything is derived from Schedule.Seed: two runs of the same
// schedule against the same grid produce the same faults at the same
// virtual instants, so chaos experiments are reproducible and
// recovery behavior is testable byte-for-byte (the ChaosSweep
// acceptance check). The injector never uses wall-clock time or
// global randomness.
//
// The hooks the injector drives live in the substrate packages:
// site.Crash/Restart/StallGatekeeper/SetUnreachable, batch.Queue's
// Stall, infosys.Service's SetPartitioned, and the broker's
// KillAgentAt (the paper's brokers track glide-ins locally, so agent
// death is observed — and injected — through the broker's registry).
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault taxonomy (DESIGN.md §3c).
const (
	// SiteCrash kills a site whole: the gatekeeper stops answering,
	// every queued and running LRM job dies, the GRIS stops pushing.
	// The site restarts (empty) after the event's Duration; a zero
	// Duration crashes it permanently.
	SiteCrash Kind = iota
	// GatekeeperStall wedges a site's jobmanager for Duration:
	// submissions hang for the remainder of the window and fail with
	// a timeout, while running jobs are unaffected.
	GatekeeperStall
	// LRMStall freezes a site's batch scheduler for Duration: no
	// scheduling passes run, so queued jobs sit still (the classic
	// hung PBS server).
	LRMStall
	// AgentDeath kills one glide-in agent process on the target site
	// (chosen in sorted-ID order); the broker's heartbeat monitoring
	// detects the loss and recovers the hosted jobs.
	AgentDeath
	// InfosysPartition cuts the broker↔index link for Duration:
	// discovery is served the view frozen at partition start.
	InfosysPartition
	// NetOutage cuts the target site off the network for Duration:
	// the site stays alive (jobs keep running) but is unreachable —
	// probes fail, submissions fail, commits abort.
	NetOutage
	// BrokerCrash kills the named federated broker for Duration (zero
	// means permanent): it stops offering, accepting and relaying
	// transfers, and peers reclaim the queued jobs they had shipped to
	// it. Site holds the broker name.
	BrokerCrash
	// PeerLinkOutage cuts the named broker's peer links for Duration:
	// transfer requests and acknowledgments in flight are lost (the
	// at-most-once protocol orphans them), and no new offloads reach
	// or leave the broker. Site holds the broker name.
	PeerLinkOutage

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SiteCrash:
		return "site-crash"
	case GatekeeperStall:
		return "gk-stall"
	case LRMStall:
		return "lrm-stall"
	case AgentDeath:
		return "agent-death"
	case InfosysPartition:
		return "infosys-partition"
	case NetOutage:
		return "net-outage"
	case BrokerCrash:
		return "broker-crash"
	case PeerLinkOutage:
		return "peer-link-outage"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// At is the injection instant, as an offset from Injector.Start.
	At time.Duration
	// Kind is the fault class.
	Kind Kind
	// Site is the target site name; empty lets the injector pick one
	// (seeded). InfosysPartition ignores it.
	Site string
	// Duration is the fault window (crash→restart, stall length,
	// partition length, outage length). Zero means permanent for
	// SiteCrash and is ignored by AgentDeath.
	Duration time.Duration
}

// Rates declares Poisson fault processes: events per hour per kind,
// with exponentially distributed windows around the given means.
// Zero-rate kinds generate nothing.
type Rates struct {
	// SiteCrashesPerHour and MeanDowntime drive SiteCrash events.
	SiteCrashesPerHour float64
	MeanDowntime       time.Duration
	// GKStallsPerHour and MeanGKStall drive GatekeeperStall events.
	GKStallsPerHour float64
	MeanGKStall     time.Duration
	// LRMStallsPerHour and MeanLRMStall drive LRMStall events.
	LRMStallsPerHour float64
	MeanLRMStall     time.Duration
	// AgentDeathsPerHour drives AgentDeath events (no window).
	AgentDeathsPerHour float64
	// PartitionsPerHour and MeanPartition drive InfosysPartition
	// events.
	PartitionsPerHour float64
	MeanPartition     time.Duration
	// OutagesPerHour and MeanOutage drive NetOutage events.
	OutagesPerHour float64
	MeanOutage     time.Duration
	// BrokerCrashesPerHour and MeanBrokerDowntime drive BrokerCrash
	// events (federated grids only; single-broker schedules leave them
	// zero).
	BrokerCrashesPerHour float64
	MeanBrokerDowntime   time.Duration
	// PeerOutagesPerHour and MeanPeerOutage drive PeerLinkOutage
	// events.
	PeerOutagesPerHour float64
	MeanPeerOutage     time.Duration
}

func (r Rates) rate(k Kind) float64 {
	switch k {
	case SiteCrash:
		return r.SiteCrashesPerHour
	case GatekeeperStall:
		return r.GKStallsPerHour
	case LRMStall:
		return r.LRMStallsPerHour
	case AgentDeath:
		return r.AgentDeathsPerHour
	case InfosysPartition:
		return r.PartitionsPerHour
	case NetOutage:
		return r.OutagesPerHour
	case BrokerCrash:
		return r.BrokerCrashesPerHour
	case PeerLinkOutage:
		return r.PeerOutagesPerHour
	}
	return 0
}

func (r Rates) mean(k Kind) time.Duration {
	switch k {
	case SiteCrash:
		return r.MeanDowntime
	case GatekeeperStall:
		return r.MeanGKStall
	case LRMStall:
		return r.MeanLRMStall
	case InfosysPartition:
		return r.MeanPartition
	case NetOutage:
		return r.MeanOutage
	case BrokerCrash:
		return r.MeanBrokerDowntime
	case PeerLinkOutage:
		return r.MeanPeerOutage
	}
	return 0
}

// minWindow floors generated fault windows so an exponential draw
// cannot produce a degenerate sub-scheduling-cycle blip.
const minWindow = time.Second

// Schedule declares a fault scenario: explicit events, rate-generated
// events, or both, over a horizon, fully determined by Seed.
type Schedule struct {
	// Seed drives every random choice (arrival times, windows, target
	// sites). Same seed, same faults.
	Seed int64
	// Horizon bounds rate-generated arrivals (explicit Events may lie
	// beyond it).
	Horizon time.Duration
	// Events are explicit faults, merged with the generated ones.
	Events []Event
	// Rates generate Poisson fault arrivals over the horizon.
	Rates Rates
}

// generate expands the schedule into a time-ordered event list:
// explicit events plus seeded Poisson arrivals per kind. Target sites
// are left as declared (empty targets are resolved by the injector's
// seeded pick at Start). Deterministic: same schedule, same list.
func (s Schedule) generate() []Event {
	events := append([]Event(nil), s.Events...)
	for k := Kind(0); k < numKinds; k++ {
		rate := s.Rates.rate(k)
		if rate <= 0 || s.Horizon <= 0 {
			continue
		}
		// One independent arrival process per kind, each on its own
		// derived stream so adding a kind never reshuffles the others.
		rng := rand.New(rand.NewSource(s.Seed ^ (int64(k)+1)*0x1E3779B97F4A7C15))
		at := time.Duration(0)
		for {
			// Exponential inter-arrival, rate per hour.
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Hour))
			if at > s.Horizon {
				break
			}
			ev := Event{At: at, Kind: k}
			if mean := s.Rates.mean(k); mean > 0 {
				ev.Duration = time.Duration(rng.ExpFloat64() * float64(mean))
				if ev.Duration < minWindow {
					ev.Duration = minWindow
				}
			}
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
	return events
}

// Partitioner is the infosys hook (infosys.Service implements it).
type Partitioner interface {
	SetPartitioned(cut bool)
}

// AgentKiller is the glide-in death hook (broker.Broker implements
// it): kill one agent at the named site, reporting whether one was
// there.
type AgentKiller interface {
	KillAgentAt(siteName string) bool
}

// BrokerFaulter is the federation hook (federation.Federation
// implements it): crash a named broker or cut its peer links for d
// (zero crash duration means permanent), reporting whether the target
// exists and the fault applied.
type BrokerFaulter interface {
	CrashBroker(name string, d time.Duration) bool
	CutPeerLink(name string, d time.Duration) bool
}

// Injector drives a schedule against a grid. Register the substrate
// hooks, then Start; every fault is applied by a simulation timer at
// its scheduled virtual instant.
type Injector struct {
	sim    *simclock.Sim
	rng    *rand.Rand
	sites  map[string]*site.Site
	names  []string // sorted registration order for seeded target picks
	part   Partitioner
	agents AgentKiller
	tracer *trace.Tracer

	brokers     BrokerFaulter
	brokerNames []string // sorted, for seeded broker-target picks

	applied []string
	started bool
}

// New creates an injector on sim. The seed only covers target
// resolution for events without a declared site; arrival times and
// windows come from the schedule's own seed.
func New(sim *simclock.Sim, seed int64) *Injector {
	return &Injector{
		sim:   sim,
		rng:   rand.New(rand.NewSource(seed)),
		sites: make(map[string]*site.Site),
	}
}

// AddSite registers a site as a fault target.
func (in *Injector) AddSite(st *site.Site) {
	if _, dup := in.sites[st.Name()]; dup {
		return
	}
	in.sites[st.Name()] = st
	in.names = append(in.names, st.Name())
	sort.Strings(in.names)
}

// SetInfosys registers the information-system partition hook.
func (in *Injector) SetInfosys(p Partitioner) { in.part = p }

// SetAgentKiller registers the glide-in death hook.
func (in *Injector) SetAgentKiller(k AgentKiller) { in.agents = k }

// SetBrokerFaulter registers the federation hook plus the broker
// names BrokerCrash/PeerLinkOutage events without a declared target
// resolve against (picked seeded, like site targets).
func (in *Injector) SetBrokerFaulter(f BrokerFaulter, names ...string) {
	in.brokers = f
	in.brokerNames = append([]string(nil), names...)
	sort.Strings(in.brokerNames)
}

// SetTracer wires the event tracer: every processed fault — applied or
// skipped — is emitted as a FaultInjected event, so job timelines can
// cross-reference the fault that hit their site (nil disables).
func (in *Injector) SetTracer(t *trace.Tracer) { in.tracer = t }

// Start expands the schedule and arms one simulation timer per event.
// It returns the resolved event list (targets picked); the injector
// can only be started once.
func (in *Injector) Start(s Schedule) []Event {
	if in.started {
		panic("faultinject: injector started twice")
	}
	in.started = true
	events := s.generate()
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Site != "" || ev.Kind == InfosysPartition:
			// Declared target (or untargeted kind): nothing to resolve.
		case ev.Kind == BrokerCrash || ev.Kind == PeerLinkOutage:
			if len(in.brokerNames) > 0 {
				ev.Site = in.brokerNames[in.rng.Intn(len(in.brokerNames))]
			}
		case len(in.names) > 0:
			ev.Site = in.names[in.rng.Intn(len(in.names))]
		}
		e := *ev
		in.sim.AfterFunc(e.At, func() { in.apply(e) })
	}
	return events
}

// apply injects one fault (runs inside a simulation timer).
func (in *Injector) apply(e Event) {
	switch e.Kind {
	case SiteCrash:
		st := in.sites[e.Site]
		if st == nil || st.Down() {
			in.log(e, "skipped")
			return
		}
		st.Crash()
		if e.Duration > 0 {
			in.sim.AfterFunc(e.Duration, st.Restart)
		}
	case GatekeeperStall:
		st := in.sites[e.Site]
		if st == nil || !st.Available() {
			in.log(e, "skipped")
			return
		}
		st.StallGatekeeper(e.Duration)
	case LRMStall:
		st := in.sites[e.Site]
		if st == nil || st.Down() {
			in.log(e, "skipped")
			return
		}
		st.Queue().Stall(e.Duration)
	case AgentDeath:
		if in.agents == nil || !in.agents.KillAgentAt(e.Site) {
			in.log(e, "skipped")
			return
		}
	case InfosysPartition:
		if in.part == nil {
			in.log(e, "skipped")
			return
		}
		in.part.SetPartitioned(true)
		if e.Duration > 0 {
			in.sim.AfterFunc(e.Duration, func() { in.part.SetPartitioned(false) })
		}
	case BrokerCrash:
		if in.brokers == nil || !in.brokers.CrashBroker(e.Site, e.Duration) {
			in.log(e, "skipped")
			return
		}
	case PeerLinkOutage:
		if in.brokers == nil || !in.brokers.CutPeerLink(e.Site, e.Duration) {
			in.log(e, "skipped")
			return
		}
	case NetOutage:
		st := in.sites[e.Site]
		if st == nil || st.Down() {
			in.log(e, "skipped")
			return
		}
		st.SetUnreachable(true)
		if e.Duration > 0 {
			in.sim.AfterFunc(e.Duration, func() { st.SetUnreachable(false) })
		}
	}
	in.log(e, "injected")
}

func (in *Injector) log(e Event, status string) {
	in.applied = append(in.applied,
		fmt.Sprintf("%v %s %s %v %s", e.At, e.Kind, e.Site, e.Duration, status))
	in.tracer.Emit(trace.Event{Kind: trace.FaultInjected, Site: e.Site,
		Dur: e.Duration, Detail: e.Kind.String() + " " + status})
}

// Applied returns one log line per processed event, in injection
// order — a deterministic trace for tests and reports.
func (in *Injector) Applied() []string { return append([]string(nil), in.applied...) }
