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
	data  map[stream][]byte
	eofs  map[stream]bool
	count int
}

func newRecorder() *recorder {
	return &recorder{data: map[stream][]byte{}, eofs: map[stream]bool{}}
}

func (r *recorder) recv(stream stream, data []byte, eof bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if eof {
		r.eofs[stream] = true
		return
	}
	r.data[stream] = append(r.data[stream], data...)
	r.count++
}

func (r *recorder) get(stream stream) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return string(r.data[stream])
}

func (r *recorder) eof(stream stream) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eofs[stream]
}

// linkPair wires a dial link and an accept link over a netsim network
// with a manual admission loop.
type linkPair struct {
	nw     *netsim.Net
	dialer *link
	accept *link
	lis    *netsim.Listener
}

func newLinkPair(t *testing.T, mode jdl.StreamingMode, dialRecv, acceptRecv receiver, onFail func(error)) *linkPair {
	t.Helper()
	nw := netsim.New(netsim.Loopback(), 21)
	lis, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	mkCfg := func(name string) linkConfig {
		return linkConfig{
			Mode:          mode,
			RetryInterval: 10 * time.Millisecond,
			MaxRetries:    200,
			SpillPath:     filepath.Join(t.TempDir(), name+".spill"),
		}
	}
	acceptLink, err := newAcceptLink(mkCfg("accept"), acceptRecv, nil)
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
			hello, err := readMessage(conn)
			if err != nil || hello.Type != msgHello {
				conn.Close()
				continue
			}
			conn.SetReadDeadline(time.Time{})
			acceptLink.attach(conn, hello)
		}
	}()

	dialLink, err := newDialLink(mkCfg("dial"), func() (net.Conn, error) { return nw.Dial("shadow") }, dialRecv, onFail)
	if err != nil {
		t.Fatal(err)
	}
	dialLink.start()
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

	waitFor(t, p.dialer.connected, "connection")
	if err := p.dialer.send(stdout, []byte("from agent"), false); err != nil {
		t.Fatal(err)
	}
	if err := p.accept.send(stdin, []byte("from shadow"), false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return up.get(stdout) == "from agent" }, "agent data")
	waitFor(t, func() bool { return down.get(stdin) == "from shadow" }, "shadow data")
}

func TestLinkEOFDelivery(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.connected, "connection")
	p.dialer.send(stderr, []byte("last words"), false)
	p.dialer.send(stderr, nil, true)
	waitFor(t, func() bool { return up.eof(stderr) }, "EOF")
	if up.get(stderr) != "last words" {
		t.Fatalf("data = %q", up.get(stderr))
	}
}

func TestLinkAcksRetireSpill(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.connected, "connection")
	for i := 0; i < 10; i++ {
		p.dialer.send(stdout, []byte("chunk"), false)
	}
	if !p.dialer.waitDrained(5 * time.Second) {
		t.Fatalf("spill not drained: %d pending", p.dialer.spill.pending())
	}
}

func TestLinkReplayAfterReconnect(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.connected, "connection")
	p.dialer.send(stdout, []byte("one|"), false)
	waitFor(t, func() bool { return up.get(stdout) == "one|" }, "first message")

	p.nw.SetDown(true)
	// Sent while down: spilled, not delivered.
	p.dialer.send(stdout, []byte("two|"), false)
	p.dialer.send(stdout, []byte("three|"), false)
	time.Sleep(30 * time.Millisecond)
	if up.get(stdout) != "one|" {
		t.Fatalf("data leaked through a down network: %q", up.get(stdout))
	}
	p.nw.SetDown(false)

	waitFor(t, func() bool { return up.get(stdout) == "one|two|three|" }, "replay")
	if !p.dialer.waitDrained(5 * time.Second) {
		t.Fatal("spill not drained after replay")
	}
}

// TestLinkRetriesWhenFreshConnectionDies: a connection that dies while
// the retry loop is still installing it must not end the loop. The
// first connection's peer answers the Hello and hangs up, so replaying
// the spilled record fails inside install; the link must dial again
// and deliver the record over the second connection.
func TestLinkRetriesWhenFreshConnectionDies(t *testing.T) {
	up := newRecorder()
	cfg := func(name string) linkConfig {
		return linkConfig{
			Mode:          jdl.ReliableStreaming,
			RetryInterval: 10 * time.Millisecond,
			MaxRetries:    200,
			SpillPath:     filepath.Join(t.TempDir(), name+".spill"),
		}
	}
	acceptLink, err := newAcceptLink(cfg("accept"), up.recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dials := 0
	dial := func() (net.Conn, error) {
		mu.Lock()
		dials++
		first := dials == 1
		mu.Unlock()
		agent, peer := net.Pipe()
		go func() {
			hello, err := readMessage(peer)
			if err != nil {
				peer.Close()
				return
			}
			if first {
				writeMessage(peer, &message{Type: msgHello})
				peer.Close()
				return
			}
			acceptLink.attach(peer, hello)
		}()
		return agent, nil
	}
	dialLink, err := newDialLink(cfg("dial"), dial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialLink.Close(); acceptLink.Close() })
	dialLink.send(stdout, []byte("spilled before connecting"), false)
	dialLink.start()
	waitFor(t, func() bool { return up.get(stdout) == "spilled before connecting" }, "replay over a second connection")
	if !dialLink.waitDrained(5 * time.Second) {
		t.Fatal("spill not drained")
	}
}

func TestLinkNoDuplicatesAcrossManyOutages(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.ReliableStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.connected, "connection")

	want := ""
	for round := 0; round < 5; round++ {
		msg := string(rune('a'+round)) + "|"
		want += msg
		p.dialer.send(stdout, []byte(msg), false)
		// Cut the link mid-flight on odd rounds.
		if round%2 == 1 {
			p.nw.SetDown(true)
			time.Sleep(15 * time.Millisecond)
			p.nw.SetDown(false)
		}
	}
	waitFor(t, func() bool { return up.get(stdout) == want }, "exactly-once delivery")
	// Extra settle time: replays must not introduce duplicates.
	time.Sleep(50 * time.Millisecond)
	if got := up.get(stdout); got != want {
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
	l, err := newDialLink(linkConfig{
		Mode:          jdl.ReliableStreaming,
		RetryInterval: 5 * time.Millisecond,
		MaxRetries:    3,
		SpillPath:     filepath.Join(t.TempDir(), "s.spill"),
	}, func() (net.Conn, error) { return nw.Dial("nowhere") }, nil, func(err error) { failed <- err })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.start()
	select {
	case failErr := <-failed:
		if !errors.Is(failErr, ErrLinkFailed) {
			t.Fatalf("onFail err = %v", failErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for give-up")
	}
	if err := l.send(stdout, []byte("x"), false); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("send after failure = %v", err)
	}
}

func TestLinkSendAfterClose(t *testing.T) {
	l, err := newAcceptLink(linkConfig{Mode: jdl.FastStreaming}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.send(stdout, []byte("x"), false); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReliableLinkRequiresSpillPath(t *testing.T) {
	if _, err := newAcceptLink(linkConfig{Mode: jdl.ReliableStreaming}, nil, nil); err == nil {
		t.Fatal("reliable link without spill path accepted")
	}
}

func TestFastLinkDropsDataWhileDown(t *testing.T) {
	up := newRecorder()
	p := newLinkPair(t, jdl.FastStreaming, nil, up.recv, nil)
	waitFor(t, p.dialer.connected, "connection")
	p.dialer.send(stdout, []byte("kept|"), false)
	waitFor(t, func() bool { return up.get(stdout) == "kept|" }, "first message")

	p.nw.SetDown(true)
	if err := p.dialer.send(stdout, []byte("lost|"), false); err != nil {
		t.Fatalf("fast send while down errored: %v", err)
	}
	p.nw.SetDown(false)
	waitFor(t, p.dialer.connected, "reconnection")
	p.dialer.send(stdout, []byte("after|"), false)
	waitFor(t, func() bool { return up.get(stdout) == "kept|after|" }, "post-outage message")
	if up.get(stdout) != "kept|after|" {
		t.Fatalf("got %q", up.get(stdout))
	}
}
