package gsi

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2006, 9, 25, 12, 0, 0, 0, time.UTC)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("/C=ES/O=CrossGrid/CN=TestCA", t0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func issue(t *testing.T, ca *CA, dn string) *Credential {
	t.Helper()
	cred, err := ca.Issue(dn, t0, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return cred
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	cred := issue(t, ca, "/O=UAB/CN=enol")
	pool := NewPool(ca)
	id, err := pool.Verify(cred.Chain, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=UAB/CN=enol" {
		t.Fatalf("identity = %q", id)
	}
}

func TestDelegationChainVerifies(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/O=UAB/CN=elisa")
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy2, err := proxy.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ca)
	id, err := pool.Verify(proxy2.Chain, t0.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=UAB/CN=elisa" {
		t.Fatalf("identity through proxy chain = %q", id)
	}
	if proxy2.Identity() != "/O=UAB/CN=elisa" {
		t.Fatalf("Identity() = %q", proxy2.Identity())
	}
	if !strings.Contains(proxy2.Subject(), "proxy") {
		t.Fatalf("Subject() = %q", proxy2.Subject())
	}
}

func TestProxyLifetimeClippedToParent(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/CN=u") // valid 12h
	proxy, err := user.Delegate(t0, 100*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.leaf().NotAfter.After(user.leaf().NotAfter) {
		t.Fatal("proxy outlives parent certificate")
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	ca := newTestCA(t)
	cred := issue(t, ca, "/CN=u")
	if _, err := NewPool(ca).Verify(cred.Chain, t0.Add(13*time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if _, err := NewPool(ca).Verify(cred.Chain, t0.Add(-time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired (not yet valid)", err)
	}
}

func TestVerifyRejectsUntrustedCA(t *testing.T) {
	ca := newTestCA(t)
	rogue, err := NewCA("/CN=RogueCA", t0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred := issue(t, rogue, "/CN=mallory")
	if _, err := NewPool(ca).Verify(cred.Chain, t0); !errors.Is(err, ErrUntrustedCA) {
		t.Fatalf("err = %v, want ErrUntrustedCA", err)
	}
}

func TestVerifyRejectsTamperedCert(t *testing.T) {
	ca := newTestCA(t)
	cred := issue(t, ca, "/CN=u")
	tampered := *cred.leaf()
	tampered.Subject = "/CN=root" // escalate
	if _, err := NewPool(ca).Verify([]*Certificate{&tampered}, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsEmptyChain(t *testing.T) {
	ca := newTestCA(t)
	if _, err := NewPool(ca).Verify(nil, t0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err = %v, want ErrEmptyChain", err)
	}
}

func TestVerifyRejectsBrokenChain(t *testing.T) {
	ca := newTestCA(t)
	a := issue(t, ca, "/CN=a")
	b := issue(t, ca, "/CN=b")
	pa, _ := a.Delegate(t0, time.Hour)
	// Graft a's proxy onto b's chain: issuer mismatch.
	chain := []*Certificate{pa.leaf(), b.leaf()}
	if _, err := NewPool(ca).Verify(chain, t0); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

// A peer supplies every link of its chain, so a parent key of the
// wrong length must fail verification, not panic ed25519.Verify.
func TestVerifyRejectsMalformedParentKey(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/CN=u")
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	parent := *user.leaf()
	parent.PublicKey = []byte{1, 2, 3}
	chain := []*Certificate{proxy.leaf(), &parent}
	if _, err := NewPool(ca).Verify(chain, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsNonProxyIntermediate(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/CN=u")
	proxy, _ := user.Delegate(t0, time.Hour)
	leaf := *proxy.leaf()
	leaf.IsProxy = false // forged flag breaks both rule and signature
	chain := []*Certificate{&leaf, user.leaf()}
	if _, err := NewPool(ca).Verify(chain, t0); err == nil {
		t.Fatal("forged non-proxy intermediate accepted")
	}
}

func handshakePair(t *testing.T, a, b *Credential, pool *Pool) (*Conn, *Conn) {
	t.Helper()
	pa, pb := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Handshake(pb, b, pool, t0.Add(time.Minute), true)
		ch <- res{c, err}
	}()
	ca, err := Handshake(pa, a, pool, t0.Add(time.Minute), false)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return ca, r.c
}

func TestHandshakeAndEcho(t *testing.T) {
	ca := newTestCA(t)
	alice := issue(t, ca, "/CN=alice")
	bob := issue(t, ca, "/CN=bob")
	pool := NewPool(ca)
	ac, bc := handshakePair(t, alice, bob, pool)
	defer ac.Close()
	defer bc.Close()

	if ac.PeerIdentity() != "/CN=bob" || bc.PeerIdentity() != "/CN=alice" {
		t.Fatalf("identities: %q / %q", ac.PeerIdentity(), bc.PeerIdentity())
	}

	go ac.Write([]byte("interactive job stdin"))
	buf := make([]byte, 64)
	n, err := bc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "interactive job stdin" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestHandshakeWithProxyCredential(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/CN=user")
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := issue(t, ca, "/CN=gatekeeper")
	ac, bc := handshakePair(t, proxy, server, NewPool(ca))
	defer ac.Close()
	defer bc.Close()
	if bc.PeerIdentity() != "/CN=user" {
		t.Fatalf("server saw identity %q, want /CN=user", bc.PeerIdentity())
	}
	if !strings.Contains(bc.peerSubject, "proxy") {
		t.Fatalf("server saw subject %q, want proxy DN", bc.peerSubject)
	}
}

func TestHandshakeRejectsUntrustedPeer(t *testing.T) {
	ca := newTestCA(t)
	rogueCA, _ := NewCA("/CN=Rogue", t0, 24*time.Hour)
	alice := issue(t, ca, "/CN=alice")
	mallory := issue(t, rogueCA, "/CN=mallory")
	pool := NewPool(ca)

	pa, pb := net.Pipe()
	errs := make(chan error, 2)
	go func() {
		_, err := Handshake(pb, mallory, NewPool(ca, rogueCA), t0, true)
		errs <- err
	}()
	_, err := Handshake(pa, alice, pool, t0, false)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("client err = %v, want ErrAuthFailed", err)
	}
	pa.Close()
	pb.Close()
	<-errs
}

func TestStreamCiphertextDiffersFromPlaintext(t *testing.T) {
	ca := newTestCA(t)
	alice := issue(t, ca, "/CN=a")
	bob := issue(t, ca, "/CN=b")
	pool := NewPool(ca)

	// Tap the raw link to confirm the plaintext never crosses it.
	rawA, tapEnd := net.Pipe()
	rawB, tapFar := net.Pipe()
	var captured bytes.Buffer
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := tapEnd.Read(buf)
			if n > 0 {
				captured.Write(buf[:n])
				tapFar.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := tapFar.Read(buf)
			if n > 0 {
				tapEnd.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()

	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Handshake(rawB, bob, pool, t0, true)
		ch <- res{c, err}
	}()
	ac, err := Handshake(rawA, alice, pool, t0, false)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}

	secret := []byte("TOP-SECRET-INTERACTIVE-PAYLOAD")
	go ac.Write(secret)
	buf := make([]byte, len(secret))
	if _, err := io.ReadFull(r.c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, secret) {
		t.Fatalf("decrypted %q", buf)
	}
	if bytes.Contains(captured.Bytes(), secret) {
		t.Fatal("plaintext visible on the wire")
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	ca := newTestCA(t)
	alice := issue(t, ca, "/CN=a")
	bob := issue(t, ca, "/CN=b")
	pool := NewPool(ca)

	// Handshake over a direct pipe, then send a frame with a flipped bit.
	pa, pb := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Handshake(pb, bob, pool, t0, true)
		ch <- res{c, err}
	}()
	ac, err := Handshake(pa, alice, pool, t0, false)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}

	// Build a frame manually by writing through ac but corrupting it in
	// transit: wrap the raw conn. Simpler: write a correct frame, then
	// corrupt the recv sequence by reading with a mismatched key state.
	go func() {
		ac.Write([]byte("x"))
		ac.Write([]byte("y"))
	}()
	buf := make([]byte, 1)
	if _, err := r.c.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Desynchronize: bump recvSeq so the next frame's MAC check fails.
	r.c.recvSeq += 5
	if _, err := r.c.Read(buf); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want ErrBadMAC", err)
	}
}

func TestFragmentedReads(t *testing.T) {
	ca := newTestCA(t)
	alice := issue(t, ca, "/CN=a")
	bob := issue(t, ca, "/CN=b")
	ac, bc := handshakePair(t, alice, bob, NewPool(ca))
	defer ac.Close()
	defer bc.Close()
	payload := bytes.Repeat([]byte("0123456789"), 100)
	go ac.Write(payload)
	var got []byte
	one := make([]byte, 7) // deliberately tiny reads
	for len(got) < len(payload) {
		n, err := bc.Read(one)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, one[:n]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented reads corrupted data")
	}
}

func TestRoundTripProperty(t *testing.T) {
	ca := newTestCA(t)
	alice := issue(t, ca, "/CN=a")
	bob := issue(t, ca, "/CN=b")
	ac, bc := handshakePair(t, alice, bob, NewPool(ca))
	defer ac.Close()
	defer bc.Close()

	f := func(msg []byte) bool {
		if len(msg) == 0 {
			return true
		}
		go ac.Write(msg)
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(bc, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
