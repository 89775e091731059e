package faultinject

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

func newSite(sim *simclock.Sim, name string) *site.Site {
	return site.New(sim, site.Config{
		Name:     name,
		Nodes:    2,
		Network:  netsim.CampusGrid(),
		Costs:    site.DefaultCosts(),
		LRMCycle: 2 * time.Second,
	})
}

func TestGenerateDeterministic(t *testing.T) {
	sched := Schedule{
		Seed:    42,
		Horizon: 6 * time.Hour,
		Rates: Rates{
			SiteCrashesPerHour: 2, MeanDowntime: 10 * time.Minute,
			GKStallsPerHour: 1, MeanGKStall: 30 * time.Second,
			LRMStallsPerHour: 1, MeanLRMStall: time.Minute,
			AgentDeathsPerHour: 3,
			PartitionsPerHour:  0.5, MeanPartition: 2 * time.Minute,
			OutagesPerHour: 1, MeanOutage: time.Minute,
		},
	}
	a, b := sched.Generate(), sched.Generate()
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same schedule generated different event lists")
	}
	sched.Seed = 43
	c := sched.Generate()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical event lists")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events out of order: %v after %v", a[i].At, a[i-1].At)
		}
	}
}

func TestGenerateMergesExplicitEvents(t *testing.T) {
	sched := Schedule{
		Seed:    1,
		Horizon: time.Hour,
		Events:  []Event{{At: 5 * time.Minute, Kind: SiteCrash, Site: "s0", Duration: time.Minute}},
		Rates:   Rates{AgentDeathsPerHour: 5},
	}
	evs := sched.Generate()
	found := false
	for _, e := range evs {
		if e.Kind == SiteCrash && e.Site == "s0" {
			found = true
		}
	}
	if !found {
		t.Fatal("explicit event lost in generation")
	}
	if len(evs) < 2 {
		t.Fatalf("rate events missing: %d total", len(evs))
	}
}

// runInjection drives an identical scripted scenario and returns the
// applied-fault log.
func runInjection(t *testing.T, seed int64) []string {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	s0, s1 := newSite(sim, "s0"), newSite(sim, "s1")
	info := infosys.New(sim, 100*time.Millisecond)

	inj := New(sim, seed)
	inj.AddSite(s0)
	inj.AddSite(s1)
	inj.SetInfosys(info)

	inj.Start(Schedule{
		Seed:    seed,
		Horizon: time.Hour,
		Events: []Event{
			{At: time.Minute, Kind: SiteCrash, Site: "s0", Duration: 2 * time.Minute},
			{At: 90 * time.Second, Kind: GatekeeperStall, Site: "s1", Duration: 30 * time.Second},
			{At: 2 * time.Minute, Kind: LRMStall, Site: "s1", Duration: time.Minute},
			{At: 3 * time.Minute, Kind: InfosysPartition, Duration: time.Minute},
			{At: 4 * time.Minute, Kind: NetOutage, Site: "s1", Duration: time.Minute},
		},
		Rates: Rates{SiteCrashesPerHour: 4, MeanDowntime: 5 * time.Minute},
	})

	// Probe the fault windows as the scenario unfolds.
	sim.RunFor(90 * time.Second)
	if !s0.Down() {
		t.Error("s0 not down after SiteCrash")
	}
	sim.RunFor(2 * time.Minute) // t=3.5min: s0 restarted at t=3min
	if s0.Down() {
		t.Error("s0 still down after restart window")
	}
	if !info.Partitioned() {
		t.Error("infosys not partitioned inside window")
	}
	sim.RunFor(time.Minute) // t=4.5min: partition healed, s1 outage active
	if info.Partitioned() {
		t.Error("infosys still partitioned after heal")
	}
	if s1.Available() {
		t.Error("s1 available inside net outage")
	}
	sim.RunFor(time.Minute) // t=5.5min: outage healed
	if !s1.Available() {
		t.Error("s1 not available after outage heal")
	}
	sim.RunFor(2 * time.Hour)
	return inj.Applied()
}

func TestInjectorDeterministicTrace(t *testing.T) {
	a := runInjection(t, 7)
	b := runInjection(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces:\n%s\nvs\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	if len(a) < 5 {
		t.Fatalf("expected at least the 5 explicit events applied, got %d", len(a))
	}
}

func TestGatekeeperStallTimesOutSubmission(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, "s0")
	inj := New(sim, 1)
	inj.AddSite(st)
	inj.Start(Schedule{Events: []Event{
		{At: time.Second, Kind: GatekeeperStall, Site: "s0", Duration: time.Minute},
	}})

	var err error
	submitted := sim.NewTrigger()
	sim.AfterFunc(2*time.Second, func() { // inside the stall window
		st.SubmitAsync(batch.Request{Owner: "u", Nodes: 1}, site.SubmitOptions{}, func(_ *batch.Handle, e error) {
			err = e
			submitted.Fire()
		})
	})
	sim.RunFor(10 * time.Minute)
	if !submitted.Fired() {
		t.Fatal("submission never returned")
	}
	if err == nil {
		t.Fatal("submission inside gatekeeper stall succeeded")
	}
}

func TestCrashKillsQueueAndStopsPublishing(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, "s0")
	info := infosys.New(sim, 100*time.Millisecond)
	st.StartPublishing(info)

	done := sim.NewTrigger()
	st.SubmitAsync(batch.Request{Owner: "u", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *batch.ExecCtx) {
		ctx.Killed.Wait()
	})}, site.SubmitOptions{}, func(h *batch.Handle, err error) {
		if err != nil {
			t.Errorf("submit: %v", err)
			done.Fire()
			return
		}
		h.Done.OnFire(done.Fire)
	})
	sim.RunFor(time.Minute)

	inj := New(sim, 1)
	inj.AddSite(st)
	inj.Start(Schedule{Events: []Event{{At: time.Second, Kind: SiteCrash, Site: "s0"}}})
	sim.RunFor(time.Minute)

	if !done.Fired() {
		t.Fatal("running job not killed by crash")
	}
	// Publishing stops while down: the record goes stale.
	stale := info.StaleAfter(30 * time.Second)
	if len(stale) != 1 || stale[0] != "s0" {
		t.Fatalf("expected s0 stale after crash, got %v", stale)
	}
}

// fakeFed records the broker faults the injector delivers.
type fakeFed struct {
	crashes, cuts []string
}

func (f *fakeFed) CrashBroker(name string, d time.Duration) bool {
	f.crashes = append(f.crashes, name)
	return name != "ghost"
}

func (f *fakeFed) CutPeerLink(name string, d time.Duration) bool {
	f.cuts = append(f.cuts, name)
	return name != "ghost"
}

func TestBrokerFaultsRouteToFederation(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	in := New(sim, 1)
	fed := &fakeFed{}
	in.SetBrokerFaulter(fed, "bB", "bA")
	events := in.Start(Schedule{Events: []Event{
		{At: time.Minute, Kind: BrokerCrash, Site: "bA", Duration: 10 * time.Minute},
		{At: 2 * time.Minute, Kind: PeerLinkOutage}, // target picked from registered brokers
		{At: 3 * time.Minute, Kind: BrokerCrash, Site: "ghost"},
	}})
	if events[1].Site != "bA" && events[1].Site != "bB" {
		t.Fatalf("untargeted broker fault resolved to %q", events[1].Site)
	}
	sim.RunFor(time.Hour)
	if len(fed.crashes) != 2 || fed.crashes[0] != "bA" {
		t.Fatalf("crashes = %v", fed.crashes)
	}
	if len(fed.cuts) != 1 {
		t.Fatalf("cuts = %v", fed.cuts)
	}
	log := strings.Join(in.Applied(), "\n")
	if !strings.Contains(log, "broker-crash ghost 0s skipped") {
		t.Fatalf("ghost crash not logged as skipped:\n%s", log)
	}
	if !strings.Contains(log, "peer-link-outage") {
		t.Fatalf("peer outage not logged:\n%s", log)
	}
}

// New broker-fault rate streams must not reshuffle the existing
// per-kind arrival streams — committed chaos artifacts depend on it.
func TestBrokerRatesDoNotShiftOtherStreams(t *testing.T) {
	base := Schedule{
		Seed:    42,
		Horizon: 6 * time.Hour,
		Rates:   Rates{SiteCrashesPerHour: 2, MeanDowntime: 10 * time.Minute},
	}
	withBrokers := base
	withBrokers.Rates.BrokerCrashesPerHour = 1
	withBrokers.Rates.MeanBrokerDowntime = 5 * time.Minute
	withBrokers.Rates.PeerOutagesPerHour = 1
	withBrokers.Rates.MeanPeerOutage = time.Minute
	var siteOnly, mixed []Event
	for _, e := range withBrokers.Generate() {
		if e.Kind == SiteCrash {
			mixed = append(mixed, e)
		}
	}
	siteOnly = base.Generate()
	if !reflect.DeepEqual(siteOnly, mixed) {
		t.Fatal("adding broker fault rates shifted the site-crash stream")
	}
}
