package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/broker"
	"crossbroker/internal/console"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/infosys"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

func TestSystemDefaultGrid(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	if len(sys.Sites) != 4 {
		t.Fatalf("%d sites", len(sys.Sites))
	}
	if sys.Info.Len() != 4 {
		t.Fatalf("info has %d records", sys.Info.Len())
	}
}

func TestSystemSubmitJDLBatch(t *testing.T) {
	sys := NewSystem(SystemConfig{FairShare: &fairshare.Config{}})
	h, err := sys.SubmitJDL(`
Executable = "simulation";
JobType    = "batch";
`, "/O=UAB/CN=enol", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.RunUntilDone(h, time.Hour) {
		t.Fatalf("job never finished: %v %v", h.State(), h.Err())
	}
	if h.State() != broker.Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	// Fair share accounted and released.
	if sys.Fair.Usage("/O=UAB/CN=enol") != 0 {
		t.Fatal("usage not released")
	}
}

func TestSystemInteractiveSharedAfterBatch(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	hb, err := sys.SubmitJDL(`Executable = "bg"; JobType = "batch";`, "batchowner", 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Minute)
	if hb.State() != broker.Running {
		t.Fatalf("batch not running: %v", hb.State())
	}
	hi, err := sys.SubmitJDL(`
Executable      = "steering_app";
JobType         = {"interactive", "sequential"};
MachineAccess   = "shared";
StreamingMode   = "reliable";
PerformanceLoss = 10;
`, "interowner", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.RunUntilDone(hi, time.Hour) {
		t.Fatalf("interactive never finished: %v %v", hi.State(), hi.Err())
	}
	if !hi.Shared() {
		t.Fatal("interactive job did not use a VM")
	}
}

func TestSystemSubmitBadJDL(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	if _, err := sys.SubmitJDL(`JobType = "batch";`, "u", 0); err == nil {
		t.Fatal("invalid JDL accepted")
	}
}

type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSessionEndToEnd(t *testing.T) {
	var out, errw syncBuf
	stdinR, stdinW := io.Pipe()
	sess, err := StartSession(SessionConfig{
		Mode:          jdl.FastStreaming,
		Stdin:         stdinR,
		Stdout:        &out,
		Stderr:        &errw,
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
	}, []interpose.AppFunc{func(stdin io.Reader, stdout, stderr io.Writer) error {
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			fmt.Fprintf(stdout, "ok: %s\n", sc.Text())
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	io.WriteString(stdinW, "set temperature 42\n")
	stdinW.Close()
	if err := sess.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "ok: set temperature 42\n" {
		t.Fatalf("out = %q", got)
	}
}

func TestSecureSessionAuthenticates(t *testing.T) {
	var out syncBuf
	sess, err := StartSession(SessionConfig{
		Mode:          jdl.ReliableStreaming,
		Stdout:        &out,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		Secure:        true,
		User:          "/O=UAB/CN=elisa",
		FlushInterval: 5 * time.Millisecond,
	}, []interpose.AppFunc{func(stdin io.Reader, stdout, stderr io.Writer) error {
		fmt.Fprintln(stdout, "secure output")
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "secure output") {
		t.Fatalf("out = %q", out.String())
	}
	if sess.UserIdentity != "/O=UAB/CN=elisa" {
		t.Fatalf("identity = %q (proxy delegation should resolve to the user)", sess.UserIdentity)
	}
}

func TestSessionSurvivesOutageInReliableMode(t *testing.T) {
	var out syncBuf
	release := make(chan struct{})
	sess, err := StartSession(SessionConfig{
		Mode:          jdl.ReliableStreaming,
		Stdout:        &out,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    200,
		FlushInterval: 5 * time.Millisecond,
	}, []interpose.AppFunc{func(stdin io.Reader, stdout, stderr io.Writer) error {
		fmt.Fprintln(stdout, "first")
		<-release
		fmt.Fprintln(stdout, "second")
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "first") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sess.Net.SetDown(true)
	close(release)
	time.Sleep(50 * time.Millisecond)
	sess.Net.SetDown(false)

	if err := sess.Wait(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "first\nsecond\n" {
		t.Fatalf("out = %q", got)
	}
}

func TestSessionMultiSubjob(t *testing.T) {
	var out syncBuf
	apps := make([]interpose.AppFunc, 3)
	for i := range apps {
		rank := i
		apps[i] = func(stdin io.Reader, stdout, stderr io.Writer) error {
			fmt.Fprintf(stdout, "subjob %d\n", rank)
			return nil
		}
	}
	sess, err := StartSession(SessionConfig{
		Mode:          jdl.FastStreaming,
		Stdout:        &out,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(out.String(), fmt.Sprintf("subjob %d", i)) {
			t.Fatalf("missing subjob %d in %q", i, out.String())
		}
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := StartSession(SessionConfig{}, nil); err == nil {
		t.Fatal("empty session accepted")
	}
}

func TestAuxSession(t *testing.T) {
	var out syncBuf
	var auxMu sync.Mutex
	aux := map[int]string{}
	sess, err := StartAuxSession(SessionConfig{
		Mode:   jdl.ReliableStreaming,
		Stdout: &out,
		Stderr: io.Discard,
		AuxSink: func(sub uint16, ch int, data []byte, eof bool) {
			auxMu.Lock()
			aux[ch] += string(data)
			auxMu.Unlock()
		},
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
	}, 2, []interpose.AuxAppFunc{func(stdin io.Reader, stdout, stderr io.Writer, auxw []io.Writer) error {
		fmt.Fprintln(stdout, "main output")
		fmt.Fprintln(auxw[0], "monitoring sample")
		fmt.Fprintln(auxw[1], "result record")
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		auxMu.Lock()
		done := strings.Contains(aux[0], "monitoring") && strings.Contains(aux[1], "result")
		auxMu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	auxMu.Lock()
	defer auxMu.Unlock()
	if aux[0] != "monitoring sample\n" || aux[1] != "result record\n" {
		t.Fatalf("aux = %q / %q", aux[0], aux[1])
	}
	if out.String() != "main output\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestConsoleGiveUpKillAbortsJob is the end-to-end give-up path of
// Section 4: a running interactive job loses its console permanently,
// the reliable link exhausts its retry budget (the agent kills the
// application), the shadow reports the kill through OnLinkFail, and
// that report drives the broker job into a terminal failed state with
// its resources released.
func TestConsoleGiveUpKillAbortsJob(t *testing.T) {
	sys := NewSystem(SystemConfig{Sites: []SiteSpec{{Name: "site00", Nodes: 2}}})
	h, err := sys.SubmitJDL(`
Executable    = "steering_app";
JobType       = {"interactive", "sequential"};
StreamingMode = "reliable";
`, "interowner", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Minute)
	if h.State() != broker.Running {
		t.Fatalf("job not running before outage: %v %v", h.State(), h.Err())
	}

	// The real-time console session for the running job.
	linkFailed := make(chan error, 1)
	sess, err := StartSession(SessionConfig{
		Mode:          jdl.ReliableStreaming,
		Stdout:        io.Discard,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		RetryInterval: 10 * time.Millisecond,
		MaxRetries:    5,
		OnLinkFail: func(sub uint16, err error) {
			select {
			case linkFailed <- err:
			default:
			}
		},
	}, []interpose.AppFunc{func(stdin io.Reader, stdout, stderr io.Writer) error {
		io.Copy(io.Discard, stdin) // runs until the give-up kill
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	sess.Net.SetDown(true) // permanent outage

	var failErr error
	select {
	case failErr = <-linkFailed:
	case <-time.After(10 * time.Second):
		t.Fatal("shadow never reported the give-up kill")
	}

	// The report reaches the broker as an abort of the running job.
	sys.Sim.AfterFunc(time.Second, func() {
		sys.Broker.Abort(h, fmt.Errorf("console reported give-up kill: %w", failErr))
	})
	sys.Run(time.Minute)

	if h.State() != broker.Failed {
		t.Fatalf("state = %v, want Failed", h.State())
	}
	if !errors.Is(h.Err(), console.ErrLinkFailed) {
		t.Fatalf("err = %v, want to wrap console.ErrLinkFailed", h.Err())
	}
	if n := sys.Broker.LeasedCPUs(); n != 0 {
		t.Fatalf("%d CPUs still leased after abort", n)
	}
	if n := sys.Sites[0].Queue().RunningCount(); n != 0 {
		t.Fatalf("%d jobs still running at the site", n)
	}
}

// handBuilt assembles the grid every experiment driver used to write
// out by hand: the reference NewSystem must stay indistinguishable
// from, event for event.
func handBuilt(n int) (*simclock.Sim, []*site.Site) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 250*time.Millisecond)
	b := broker.New(broker.Config{Sim: sim, Info: info, Seed: 3})
	var sites []*site.Site
	for i := 0; i < n; i++ {
		st := site.New(sim, site.Config{
			Name:     fmt.Sprintf("s%02d", i),
			Nodes:    2,
			Network:  netsim.WideArea(),
			Costs:    site.DefaultCosts(),
			LRMCycle: 2 * time.Second,
			Attrs:    map[string]any{"OS": "linux", "MemoryMB": 512 + i},
		})
		b.RegisterSite(st)
		sites = append(sites, st)
	}
	return sim, sites
}

func uniformSpec(n int) SystemConfig {
	return SystemConfig{
		Seed: 3,
		Sites: []SiteSpec{{
			NameFormat: "s%02d", Count: n, Nodes: 2, Network: netsim.WideArea(), LRMCycle: 2 * time.Second,
			Vary: func(i int, s *SiteSpec) {
				s.Attrs = map[string]any{"OS": "linux", "MemoryMB": 512 + i}
			},
		}},
	}
}

// A spec without fair share builds no manager and schedules no
// accounting tick: the clock holds exactly the events of the hand-built
// grid, and asking for fair share adds exactly the ticker.
func TestSystemWithoutFairShare(t *testing.T) {
	hand, _ := handBuilt(5)
	sys := NewSystem(uniformSpec(5))
	if sys.Fair != nil {
		t.Fatal("a spec without FairShare built a manager")
	}
	if got, want := sys.Sim.Pending(), hand.Pending(); got != want {
		t.Fatalf("%d events pending after construction, the hand-built grid has %d", got, want)
	}
	spec := uniformSpec(5)
	spec.FairShare = &fairshare.Config{}
	fair := NewSystem(spec)
	if fair.Fair == nil {
		t.Fatal("FairShare set, no manager")
	}
	if got, want := fair.Sim.Pending(), hand.Pending()+1; got != want {
		t.Fatalf("%d events pending with fair share, want the grid's %d plus one tick", got, want)
	}
}

// A run expands to the records the loop it replaces built, name for
// name and attribute for attribute, in the same order; it numbers on
// from the specs before it, and a run of zero sites builds none.
func TestUniformSitesMatchLoop(t *testing.T) {
	_, want := handBuilt(12)
	sys := NewSystem(uniformSpec(12))
	if len(sys.Sites) != len(want) {
		t.Fatalf("%d sites, want %d", len(sys.Sites), len(want))
	}
	for i, st := range sys.Sites {
		if got, want := st.Record(), want[i].Record(); !reflect.DeepEqual(got, want) {
			t.Fatalf("site %d record = %+v, want %+v", i, got, want)
		}
		if st.Network() != netsim.WideArea() {
			t.Fatalf("site %d network = %v", i, st.Network().Name)
		}
	}

	mixed := NewSystem(SystemConfig{
		Sites: []SiteSpec{{Name: "exec", Nodes: 4}, {NameFormat: "eu%02d", Count: 2, Nodes: 1}, {NameFormat: "none%d"}},
	})
	var names []string
	for _, st := range mixed.Sites {
		names = append(names, st.Name())
	}
	if want := []string{"exec", "eu01", "eu02"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if p := mixed.Sites[0].Network(); p != netsim.CampusGrid() {
		t.Fatalf("zero Network built a %q site, want campus", p.Name)
	}
}

// The elastic, delta-log, shard and shard-link fields reach the site
// and the index they describe.
func TestSpecReachesSiteAndIndex(t *testing.T) {
	sys := NewSystem(SystemConfig{
		Index: IndexSpec{Shards: 4, DeltaLogDepth: 64, ShardLink: netsim.WideArea()},
		Sites: []SiteSpec{
			{Name: "fixed", Nodes: 2, PublishInterval: time.Hour},
			{Name: "cloud", Elastic: &batch.ElasticConfig{MaxNodes: 3, ColdStart: 45 * time.Second}},
		},
	})
	if got := sys.Info.ShardCount(); got != 4 {
		t.Fatalf("ShardCount = %d, want 4", got)
	}
	if got := sys.Info.DeltaLogDepth(); got != 64 {
		t.Fatalf("DeltaLogDepth = %d, want 64", got)
	}
	link := netsim.WideArea()
	if got, want := sys.Info.SubscribeImmediate(0, 0).Cost, link.RTT(); got < want {
		t.Fatalf("subscription answer cost %v, below the shard link's %v round trip", got, want)
	}
	if flat := NewSystem(SystemConfig{}).Info; flat.SubscribeImmediate(0, 0).Cost != flat.QueryLatency() {
		t.Fatal("an index without a shard link did not charge the flat latency")
	}
	if k := sys.Sites[0].Backend().Kind; k != batch.BackendBatch {
		t.Fatalf("fixed site backend = %q", k)
	}
	if k := sys.Sites[1].Backend().Kind; k != batch.BackendElastic {
		t.Fatalf("elastic site backend = %q", k)
	}
	if got := sys.Sites[1].Record().TotalCPUs; got != 3 {
		t.Fatalf("elastic site publishes %d CPUs, want MaxNodes 3", got)
	}
	// The hourly publisher's record is still its registration push
	// after half an hour; the default two-minute one has moved on.
	start := sys.Sim.Now()
	sys.Run(30 * time.Minute)
	for _, rec := range sys.Info.SnapshotImmediate().Records() {
		if fresh := rec.UpdatedAt.After(start); fresh != (rec.Name == "cloud") {
			t.Fatalf("%s last published at %v (start %v): PublishInterval not applied", rec.Name, rec.UpdatedAt, start)
		}
	}
}

type fakeJob struct{ state broker.State }

func (j *fakeJob) State() broker.State { return j.state }

// Drain stops at the first check that finds every job terminal, and
// when its budget runs out reports the jobs that are not.
func TestDrain(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	a, b := &fakeJob{broker.Running}, &fakeJob{broker.Running}
	sys.Sim.AfterFunc(20*time.Minute, func() { a.state = broker.Done })
	sys.Sim.AfterFunc(40*time.Minute, func() { b.state = broker.Failed })
	start := sys.Sim.Now()
	if left := Drain(sys, []*fakeJob{a, b}, 15*time.Minute, 8); len(left) != 0 {
		t.Fatalf("%d jobs left", len(left))
	}
	if got := sys.Sim.Since(start); got != 45*time.Minute {
		t.Fatalf("drained for %v, want to stop at the first all-terminal check (45m)", got)
	}
	if left := Drain(sys, []*fakeJob{a, b}, 15*time.Minute, 8); len(left) != 0 || sys.Sim.Since(start) != 45*time.Minute {
		t.Fatal("a drained grid was advanced again")
	}

	c := &fakeJob{broker.Pending}
	start = sys.Sim.Now()
	left := Drain(sys, []*fakeJob{a, c, b}, 15*time.Minute, 3)
	if len(left) != 1 || left[0] != c {
		t.Fatalf("left = %v, want the one pending job", left)
	}
	if got := sys.Sim.Since(start); got != 45*time.Minute {
		t.Fatalf("budget of 3 rounds ran %v", got)
	}
}
