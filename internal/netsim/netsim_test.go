package netsim

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := pair(Loopback(), 1)
	defer a.Close()
	defer b.Close()
	msg := []byte("hello grid")
	go func() { a.Write(msg) }()
	buf := make([]byte, 64)
	n, err := b.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestPairBidirectional(t *testing.T) {
	a, b := pair(Loopback(), 2)
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 16)
		n, _ := b.Read(buf)
		b.Write(bytes.ToUpper(buf[:n]))
	}()
	a.Write([]byte("ping"))
	buf := make([]byte, 16)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "PING" {
		t.Fatalf("got %q err %v", buf[:n], err)
	}
}

func TestLatencyFloor(t *testing.T) {
	p := Profile{Name: "slow", OneWayDelay: 30 * time.Millisecond}
	a, b := pair(p, 3)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	go a.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~30ms", el)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 KB at 100 KB/s should take ~10ms.
	p := Profile{Name: "narrow", BytesPerSec: 100e3}
	a, b := pair(p, 4)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 1000)
	start := time.Now()
	go a.Write(payload)
	if _, err := io.ReadFull(b, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 8*time.Millisecond {
		t.Fatalf("1KB over 100KB/s took %v, want >= ~10ms", el)
	}
}

func TestOrderedDeliveryProperty(t *testing.T) {
	f := func(chunks [][]byte, seed int64) bool {
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		a, b := pair(Profile{Jitter: 100 * time.Microsecond, OneWayDelay: 10 * time.Microsecond}, seed)
		defer a.Close()
		defer b.Close()
		go func() {
			for _, c := range chunks {
				if len(c) > 0 {
					a.Write(c)
				}
			}
			a.Close()
		}()
		got, err := io.ReadAll(b)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEOFAfterPeerClose(t *testing.T) {
	a, b := pair(Loopback(), 5)
	a.Write([]byte("tail"))
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "tail" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestBreakDropsDataAndErrors(t *testing.T) {
	p := Profile{OneWayDelay: 50 * time.Millisecond}
	a, b := pair(p, 6)
	a.Write([]byte("lost"))
	a.sever()
	if _, err := b.Read(make([]byte, 4)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("read err = %v, want ErrLinkDown", err)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("write err = %v, want ErrLinkDown", err)
	}
}

func TestReadDeadline(t *testing.T) {
	a, b := pair(Loopback(), 7)
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := b.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Clearing the deadline allows reads again.
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("y"))
	if _, err := b.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestNetListenDial(t *testing.T) {
	nw := New(Loopback(), 1)
	l, err := nw.Listen("gatekeeper")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c) // echo
		c.Close()
	}()
	c, err := nw.Dial("gatekeeper")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("echo"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "echo" {
		t.Fatalf("got %q err %v", buf, err)
	}
	c.Close()
}

func TestDialUnknownNameRefused(t *testing.T) {
	nw := New(Loopback(), 1)
	if _, err := nw.Dial("nowhere"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestListenDuplicateName(t *testing.T) {
	nw := New(Loopback(), 1)
	if _, err := nw.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestListenerCloseFreesName(t *testing.T) {
	nw := New(Loopback(), 1)
	l, _ := nw.Listen("a")
	l.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := nw.Listen("a"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	if _, err := nw.Dial("a"); err == nil {
		// new listener exists, dial should succeed but nobody accepts;
		// it lands in backlog, fine.
		_ = err
	}
}

func TestNetworkOutageBreaksConns(t *testing.T) {
	nw := New(Loopback(), 1)
	l, _ := nw.Listen("svc")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := nw.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	nw.SetDown(true)
	if !nw.isDown() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("write during outage: %v", err)
	}
	if _, err := nw.Dial("svc"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("dial during outage: %v", err)
	}
	nw.SetDown(false)
	// Old conns stay broken; new dials work.
	if _, err := srv.Read(make([]byte, 1)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("old conn usable after outage: %v", err)
	}
	go func() {
		c, _ := l.Accept()
		if c != nil {
			c.Close()
		}
	}()
	if _, err := nw.Dial("svc"); err != nil {
		t.Fatalf("dial after restore: %v", err)
	}
}

func TestOutageSchedule(t *testing.T) {
	nw := New(Loopback(), 1)
	nw.Outage(10*time.Millisecond, 30*time.Millisecond)
	if nw.isDown() {
		t.Fatal("down immediately")
	}
	time.Sleep(25 * time.Millisecond)
	if !nw.isDown() {
		t.Fatal("not down during outage window")
	}
	time.Sleep(40 * time.Millisecond)
	if nw.isDown() {
		t.Fatal("still down after outage window")
	}
}

func TestProfileTransferTime(t *testing.T) {
	p := Profile{OneWayDelay: time.Millisecond, BytesPerSec: 1e6}
	got := p.TransferTime(1_000_000)
	want := time.Millisecond + time.Second
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	if rtt := p.RTT(); rtt != 2*time.Millisecond {
		t.Fatalf("RTT = %v", rtt)
	}
}

func TestProfileScale(t *testing.T) {
	p := WideArea().Scale(0.1)
	if p.OneWayDelay != WideArea().OneWayDelay/10 {
		t.Fatalf("scaled delay = %v", p.OneWayDelay)
	}
}

func TestJitterSampleBounds(t *testing.T) {
	p := Profile{Jitter: time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		j := p.jitterSample(rng)
		if j < 0 || j > time.Millisecond {
			t.Fatalf("jitter %v out of bounds", j)
		}
	}
	if (Profile{}).jitterSample(rng) != 0 {
		t.Fatal("zero-jitter profile produced jitter")
	}
}

func TestAddrStrings(t *testing.T) {
	nw := New(Loopback(), 1)
	l, _ := nw.Listen("site1")
	if l.Addr().String() != "site1" || l.Addr().Network() != "netsim" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr().String())
	}
}
