package baseline

import (
	"bytes"
	"io"
	"testing"
	"time"

	"crossbroker/internal/netsim"
)

func echoServer(t *testing.T, s io.ReadWriter, msgSize, rounds int) {
	t.Helper()
	go func() {
		buf := make([]byte, msgSize)
		for i := 0; i < rounds; i++ {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
}

func roundTrips(t *testing.T, ch *Channel, msgSize, rounds int) time.Duration {
	t.Helper()
	echoServer(t, ch.Server(), msgSize, rounds)
	msg := bytes.Repeat([]byte("x"), msgSize)
	buf := make([]byte, msgSize)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := ch.Client().Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(ch.Client(), buf); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

func TestSSHRoundTrip(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	ch, err := NewSSH(nw, "ssh0")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if ch.name != "ssh" {
		t.Fatalf("name = %q", ch.name)
	}
	if d := roundTrips(t, ch, 10, 20); d <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestGloginRoundTrip(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	ch, err := NewGlogin(nw, "gl0")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if d := roundTrips(t, ch, 1000, 10); d <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestDataIntegrityAcrossBlocks(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	ch, err := NewSSH(nw, "integ")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	// 10 KB spans many 512-byte blocks.
	payload := make([]byte, 10*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	go func() {
		buf := make([]byte, len(payload))
		io.ReadFull(ch.Server(), buf)
		ch.Server().Write(buf)
	}()
	ch.Client().Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(ch.Client(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across blocks")
	}
}

func TestGloginDegradesOnHighLatencyBulk(t *testing.T) {
	// On a high-latency path, stop-and-wait per 1KB makes 10KB
	// transfers pay ~10 extra RTTs; ssh streams them. This is the
	// paper's Figure 7 observation.
	wan := netsim.Profile{Name: "wan", OneWayDelay: 2 * time.Millisecond}
	nwS := netsim.New(wan, 1)
	nwG := netsim.New(wan, 2)
	ssh, err := NewSSH(nwS, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer ssh.Close()
	gl, err := NewGlogin(nwG, "g")
	if err != nil {
		t.Fatal(err)
	}
	defer gl.Close()

	const rounds = 5
	dSSH := roundTrips(t, ssh, 10*1024, rounds)
	dGlogin := roundTrips(t, gl, 10*1024, rounds)
	if dGlogin <= dSSH {
		t.Fatalf("glogin (%v) not slower than ssh (%v) for bulk on WAN", dGlogin, dSSH)
	}
	if dGlogin < 2*dSSH {
		t.Logf("warning: degradation mild: ssh=%v glogin=%v", dSSH, dGlogin)
	}
}

func TestCustomChannel(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	ch, err := NewCustom(nw, "c", "mychan", Config{BlockSize: 64, PerBlock: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if ch.name != "mychan" {
		t.Fatalf("name = %q", ch.name)
	}
	roundTrips(t, ch, 128, 5)
}

func TestDialFailsWhenNetworkDown(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	nw.SetDown(true)
	if _, err := NewSSH(nw, "down"); err == nil {
		t.Fatal("session established over a down network")
	}
}

func TestReadAfterCloseEOF(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 1)
	ch, err := NewSSH(nw, "eof")
	if err != nil {
		t.Fatal(err)
	}
	ch.Close()
	buf := make([]byte, 1)
	if _, err := ch.Client().Read(buf); err == nil {
		t.Fatal("read after close succeeded")
	}
}
