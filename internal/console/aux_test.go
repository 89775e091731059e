package console

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// auxCollector gathers per-channel auxiliary traffic.
type auxCollector struct {
	mu   sync.Mutex
	data map[int]*strings.Builder
	eofs map[int]bool
}

func newAuxCollector() *auxCollector {
	return &auxCollector{data: map[int]*strings.Builder{}, eofs: map[int]bool{}}
}

func (c *auxCollector) sink(sub uint16, channel int, data []byte, eof bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if eof {
		c.eofs[channel] = true
		return
	}
	b := c.data[channel]
	if b == nil {
		b = &strings.Builder{}
		c.data[channel] = b
	}
	b.Write(data)
}

func (c *auxCollector) get(channel int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.data[channel]
	if b == nil {
		return "", c.eofs[channel]
	}
	return b.String(), c.eofs[channel]
}

func startAuxSession(t *testing.T, mode jdl.StreamingMode, naux int, app interpose.AuxAppFunc) (*auxCollector, *Agent, *Shadow, *netsim.Net) {
	t.Helper()
	nw := netsim.New(netsim.Loopback(), 9)
	l, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	col := newAuxCollector()
	out := &syncWriter{}
	shadow, err := StartShadow(ShadowConfig{
		Mode:          mode,
		Subjobs:       1,
		Accept:        func() (net.Conn, error) { return l.Accept() },
		Stdout:        out,
		Stderr:        io.Discard,
		AuxSink:       col.sink,
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shadow.Close() })

	proc, err := interpose.FuncAux(naux, app)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := StartAgent(AgentConfig{
		Mode:          mode,
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    100,
	}, proc)
	if err != nil {
		t.Fatal(err)
	}
	return col, agent, shadow, nw
}

func TestAuxChannelsForwarded(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		fmt.Fprintln(stdout, "normal output")
		fmt.Fprintln(aux[0], "monitor: cpu 42%")
		fmt.Fprintln(aux[1], "result: 3.14159")
		return nil
	}
	col, agent, shadow, _ := startAuxSession(t, jdl.FastStreaming, 2, app)
	if err := agent.Wait(); err != nil {
		t.Fatal(err)
	}
	if !shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	got0, eof0 := col.get(0)
	got1, eof1 := col.get(1)
	if got0 != "monitor: cpu 42%\n" || !eof0 {
		t.Fatalf("aux0 = %q eof=%v", got0, eof0)
	}
	if got1 != "result: 3.14159\n" || !eof1 {
		t.Fatalf("aux1 = %q eof=%v", got1, eof1)
	}
}

// TestAuxDeliveredBeforeShadowCompletes: an aux channel that flushes
// after stdout and stderr closed still reaches the shadow, EOF
// included, before the session completes. The shadow completes on the
// stdout and stderr EOFs, so those must not overtake aux traffic.
func TestAuxDeliveredBeforeShadowCompletes(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		fmt.Fprintln(stdout, "main output")
		stdout.(io.Closer).Close()
		stderr.(io.Closer).Close()
		time.Sleep(100 * time.Millisecond)
		fmt.Fprintln(aux[0], "late sample")
		return nil
	}
	col, agent, shadow, _ := startAuxSession(t, jdl.ReliableStreaming, 1, app)
	if !shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	if got, eof := col.get(0); got != "late sample\n" || !eof {
		t.Fatalf("aux0 at shadow completion = %q eof=%v, want the late sample and its EOF", got, eof)
	}
	if err := agent.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestAuxReliableSurvivesOutage(t *testing.T) {
	release := make(chan struct{})
	app := func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		fmt.Fprintln(aux[0], "pre-outage sample")
		<-release
		fmt.Fprintln(aux[0], "post-outage sample")
		fmt.Fprintln(stdout, "done")
		return nil
	}
	col, agent, shadow, nw := startAuxSession(t, jdl.ReliableStreaming, 1, app)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := col.get(0); strings.Contains(s, "pre-outage") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pre-outage sample never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	nw.SetDown(true)
	close(release)
	time.Sleep(50 * time.Millisecond)
	nw.SetDown(false)

	if err := agent.Wait(); err != nil {
		t.Fatal(err)
	}
	if !shadow.Wait(10 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	got, _ := col.get(0)
	if got != "pre-outage sample\npost-outage sample\n" {
		t.Fatalf("aux0 across outage = %q", got)
	}
}

func TestAuxAbsentWithoutSink(t *testing.T) {
	// Aux traffic with no sink configured must be discarded silently
	// and not affect the session.
	nw := netsim.New(netsim.Loopback(), 3)
	l, _ := nw.Listen("shadow")
	defer l.Close()
	out := &syncWriter{}
	shadow, err := StartShadow(ShadowConfig{
		Subjobs:       1,
		Accept:        func() (net.Conn, error) { return l.Accept() },
		Stdout:        out,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()
	proc, _ := interpose.FuncAux(1, func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		fmt.Fprintln(aux[0], "nobody listens")
		fmt.Fprintln(stdout, "ok")
		return nil
	})
	agent, err := StartAgent(AgentConfig{
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
	}, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Wait(); err != nil {
		t.Fatal(err)
	}
	if !shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	if out.String() != "ok\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestStreamAuxHelpers(t *testing.T) {
	s := aux(2)
	if !s.isAux() || s.auxIndex() != 2 || s.String() != "aux2" {
		t.Fatalf("aux helpers: %v %v %q", s.isAux(), s.auxIndex(), s.String())
	}
	if stdout.isAux() {
		t.Fatal("stdout marked aux")
	}
}
