package console

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// recorder collects receiver callbacks.
type recorder struct {
	mu    sync.Mutex
	data  map[Stream][]byte
	eofs  map[Stream]bool
	count int
}

func newRecorder() *recorder {
	return &recorder{data: map[Stream][]byte{}, eofs: map[Stream]bool{}}
}

func (r *recorder) recv(stream Stream, data []byte, eof bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if eof {
		r.eofs[stream] = true
		return
	}
	r.data[stream] = append(r.data[stream], data...)
	r.count++
}

func (r *recorder) get(stream Stream) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return string(r.data[stream])
}

func (r *recorder) eof(stream Stream) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eofs[stream]
}

// linkPair wires a dial link and an accept link over a netsim network
// with a manual admission loop.
type linkPair struct {
	nw     *netsim.Net
	dialer *Link
	accept *Link
	lis    *netsim.Listener
}

func newLinkPair(t *testing.T, mode jdl.StreamingMode, dialRecv, acceptRecv Receiver, onFail func(error)) *linkPair {
	t.Helper()
	nw := netsim.New(netsim.Loopback(), 21)
	lis, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	mkCfg := func(name string) LinkConfig {
		return LinkConfig{
			Mode:          mode,
			RetryInterval: 10 * time.Millisecond,
			MaxRetries:    200,
			SpillPath:     filepath.Join(t.TempDir(), name+".spill"),
		}
	}
	acceptLink, err := NewAcceptLink(mkCfg("accept"), acceptRecv, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			hello, err := ReadMessage(conn)
			if err != nil || hello.Type != MsgHello {
				conn.Close()
				continue
			}
			conn.SetReadDeadline(time.Time{})
			acceptLink.Attach(conn, hello)
		}
	}()

	dialLink, err := NewDialLink(mkCfg("dial"), func() (net.Conn, error) { return nw.Dial("shadow") }, dialRecv, onFail)
	if err != nil {
		t.Fatal(err)
	}
	dialLink.Start()
	t.Cleanup(func() { dialLink.Close(); acceptLink.Close() })
	return &linkPair{nw: nw, dialer: dialLink, accept: acceptLink, lis: lis}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLinkBasicExchange(t *testing.T) {
	up := newRecorder()   // received by accept side
	down := newRecorder() // received by dial side
	p := newLinkPair(t, jdl.ReliableStreaming, down.recv, up.recv, nil)

	waitFor(t, p.dialer.Connected, "connection")
	if err := p.dialer.Send(Stdout, []byte("from agent")); err != nil {
		t.Fatal(err)
	}
	if err := p.accept.Send(Stdin, []byte("from shadow")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return up.get(Stdout) == "from agent" }, "agent data")
	waitFor(t, func() bool { return down.get(Stdin) == "from shadow" }, "shadow data")
}

func TestLinkEOFDelivery(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.Connected, "connection")
	p.dialer.Send(Stderr, []byte("last words"))
	p.dialer.SendEOF(Stderr)
	waitFor(t, func() bool { return up.eof(Stderr) }, "EOF")
	if up.get(Stderr) != "last words" {
		t.Fatalf("data = %q", up.get(Stderr))
	}
}

func TestLinkAcksRetireSpill(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.Connected, "connection")
	for i := 0; i < 10; i++ {
		p.dialer.Send(Stdout, []byte("chunk"))
	}
	if !p.dialer.WaitDrained(5 * time.Second) {
		t.Fatalf("spill not drained: %d pending", p.dialer.Pending())
	}
}

func TestLinkReplayAfterReconnect(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.Connected, "connection")
	p.dialer.Send(Stdout, []byte("one|"))
	waitFor(t, func() bool { return up.get(Stdout) == "one|" }, "first message")

	p.nw.SetDown(true)
	// Sent while down: spilled, not delivered.
	p.dialer.Send(Stdout, []byte("two|"))
	p.dialer.Send(Stdout, []byte("three|"))
	time.Sleep(30 * time.Millisecond)
	if up.get(Stdout) != "one|" {
		t.Fatalf("data leaked through a down network: %q", up.get(Stdout))
	}
	p.nw.SetDown(false)

	waitFor(t, func() bool { return up.get(Stdout) == "one|two|three|" }, "replay")
	if !p.dialer.WaitDrained(5 * time.Second) {
		t.Fatal("spill not drained after replay")
	}
}

func TestLinkNoDuplicatesAcrossManyOutages(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.Connected, "connection")

	want := ""
	for round := 0; round < 5; round++ {
		msg := string(rune('a'+round)) + "|"
		want += msg
		p.dialer.Send(Stdout, []byte(msg))
		// Cut the link mid-flight on odd rounds.
		if round%2 == 1 {
			p.nw.SetDown(true)
			time.Sleep(15 * time.Millisecond)
			p.nw.SetDown(false)
		}
	}
	waitFor(t, func() bool { return up.get(Stdout) == want }, "exactly-once delivery")
	// Extra settle time: replays must not introduce duplicates.
	time.Sleep(50 * time.Millisecond)
	if got := up.get(Stdout); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestLinkGiveUpAfterMaxRetries(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 5)
	nw.SetDown(true)
	// The link flips Failed under its lock and calls onFail after
	// unlocking, so Failed() turning true does not mean the callback has
	// run yet: wait on the callback's own signal.
	failed := make(chan error, 1)
	l, err := NewDialLink(LinkConfig{
		Mode:          jdl.ReliableStreaming,
		RetryInterval: 5 * time.Millisecond,
		MaxRetries:    3,
		SpillPath:     filepath.Join(t.TempDir(), "s.spill"),
	}, func() (net.Conn, error) { return nw.Dial("nowhere") }, nil, func(err error) { failed <- err })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Start()
	select {
	case failErr := <-failed:
		if !errors.Is(failErr, ErrLinkFailed) {
			t.Fatalf("onFail err = %v", failErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for give-up")
	}
	if !l.Failed() {
		t.Fatal("onFail ran but the link does not report Failed")
	}
	if err := l.Send(Stdout, []byte("x")); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("Send after failure = %v", err)
	}
}

func TestLinkSendAfterClose(t *testing.T) {
	l, err := NewAcceptLink(LinkConfig{Mode: jdl.FastStreaming}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Send(Stdout, []byte("x")); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReliableLinkRequiresSpillPath(t *testing.T) {
	if _, err := NewAcceptLink(LinkConfig{Mode: jdl.ReliableStreaming}, nil, nil); err == nil {
		t.Fatal("reliable link without spill path accepted")
	}
}

func TestFastLinkDropsDataWhileDown(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.FastStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.Connected, "connection")
	p.dialer.Send(Stdout, []byte("kept|"))
	waitFor(t, func() bool { return up.get(Stdout) == "kept|" }, "first message")

	p.nw.SetDown(true)
	if err := p.dialer.Send(Stdout, []byte("lost|")); err != nil {
		t.Fatalf("fast send while down errored: %v", err)
	}
	p.nw.SetDown(false)
	waitFor(t, p.dialer.Connected, "reconnection")
	p.dialer.Send(Stdout, []byte("after|"))
	waitFor(t, func() bool { return up.get(Stdout) == "kept|after|" }, "post-outage message")
	if up.get(Stdout) != "kept|after|" {
		t.Fatalf("got %q", up.get(Stdout))
	}
}
