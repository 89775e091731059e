package gsi

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// recordingConn keeps a copy of everything written through it.
type recordingConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.out.Write(b)
	return c.Conn.Write(b)
}

// scriptedClient is the server end of a net.Pipe whose client sent
// a fixed byte string and then closed its write side: reads replay the
// script and then return io.EOF, and writes go through the pipe to a
// client that discards them.
type scriptedClient struct {
	net.Conn
	script io.Reader
}

func (c *scriptedClient) Read(b []byte) (int, error) { return c.script.Read(b) }

// serverHandshake runs an accepting Handshake against a client that
// sends data, and returns the server's error.
func serverHandshake(server *Credential, pool *Pool, now time.Time, data []byte) error {
	srv, cli := net.Pipe()
	go io.Copy(io.Discard, cli)
	_, err := Handshake(&scriptedClient{Conn: srv, script: bytes.NewReader(data)}, server, pool, now, true)
	srv.Close()
	cli.Close()
	return err
}

// FuzzHandshake feeds arbitrary client bytes to a server Handshake, the
// shadow's accept path: it must return an error, never panic. A
// genuine client's bytes fail too, because its auth signs a transcript
// holding a different server nonce.
func FuzzHandshake(f *testing.F) {
	ca, err := NewCA("/C=ES/O=CrossGrid/CN=FuzzCA", t0, 24*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	user, err := ca.Issue("/CN=user", t0, 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	server, err := ca.Issue("/CN=shadow", t0, 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	pool := NewPool(ca)
	now := t0.Add(time.Minute)

	// A genuine client's hello and auth, recorded off a real handshake.
	pa, pb := net.Pipe()
	rec := &recordingConn{Conn: pa}
	go Handshake(pb, server, pool, now, true)
	if _, err := Handshake(rec, proxy, pool, now, false); err != nil {
		f.Fatal(err)
	}
	pa.Close()
	pb.Close()
	genuine := rec.out.Bytes()

	// A delegated chain whose parent key is 3 bytes long.
	parent := *user.leaf()
	parent.PublicKey = []byte{1, 2, 3}
	var shortKey bytes.Buffer
	if err := writeMsg(&shortKey, &hello{Chain: []*Certificate{proxy.leaf(), &parent}, ECDH: make([]byte, 32)}); err != nil {
		f.Fatal(err)
	}
	var oversized [4]byte
	binary.BigEndian.PutUint32(oversized[:], maxFrame+1)

	f.Add(genuine)
	f.Add(shortKey.Bytes())
	f.Add(genuine[:len(genuine)/2])
	f.Add(genuine[:2])
	f.Add(oversized[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := serverHandshake(server, pool, now, data); err == nil {
			t.Fatalf("handshake accepted %d client bytes", len(data))
		}
	})
}

// sessionPair runs a real handshake between a proxy client and a
// server, and returns the client's end, whose raw writes rec records
// (the handshake's bytes already dropped), and the server's.
func sessionPair(f *testing.F) (client *Conn, rec *recordingConn, server *Conn) {
	ca, err := NewCA("/C=ES/O=CrossGrid/CN=FuzzCA", t0, 24*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	user, err := ca.Issue("/CN=user", t0, 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	shadow, err := ca.Issue("/CN=shadow", t0, 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	pool := NewPool(ca)
	now := t0.Add(time.Minute)
	pa, pb := net.Pipe()
	rec = &recordingConn{Conn: pa}
	srvc := make(chan *Conn, 1)
	go func() {
		c, err := Handshake(pb, shadow, pool, now, true)
		if err != nil {
			c = nil
		}
		srvc <- c
	}()
	if client, err = Handshake(rec, proxy, pool, now, false); err != nil {
		f.Fatal(err)
	}
	if server = <-srvc; server == nil {
		f.Fatal("server handshake failed")
	}
	go io.Copy(io.Discard, pb) // the server's raw side: drain the frames
	rec.out.Reset()
	return client, rec, server
}

// sessionReference decodes data as the frames a peer holding key sent
// from sequence number 0, with its own MAC check: the plaintext of
// every frame before the first one that is torn, oversized or fails
// its MAC, and the error a reader must end on there.
func sessionReference(key [32]byte, data []byte) (plain []byte, end error) {
	for seq := uint64(0); ; seq++ {
		switch {
		case len(data) == 0:
			return plain, io.EOF
		case len(data) < 4:
			return plain, io.ErrUnexpectedEOF
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n < sha256.Size || n > maxFrame+sha256.Size {
			return plain, ErrFrameSize
		}
		if len(data) < n {
			return plain, io.ErrUnexpectedEOF
		}
		ct, mac := data[:n-sha256.Size], data[n-sha256.Size:n]
		data = data[n:]
		m := hmac.New(sha256.New, key[:])
		binary.Write(m, binary.BigEndian, seq)
		m.Write(ct)
		if !bytes.Equal(m.Sum(nil), mac) {
			return plain, ErrBadMAC
		}
		p := make([]byte, len(ct))
		xorKeyStream(key, seq, p, ct)
		plain = append(plain, p...)
	}
}

// FuzzSessionFrames feeds arbitrary bytes to an authenticated
// session's Read, as a peer or a tap on the wire could send them after
// a real handshake. Read must not panic or hang, must deliver exactly
// the plaintext of the frames before the first bad one, and must end
// there: a frame that fails its MAC (forged, replayed, reordered or
// altered) with ErrBadMAC, an oversized one with ErrFrameSize, a torn
// one with io.ErrUnexpectedEOF, and a stream cut between frames with
// io.EOF.
func FuzzSessionFrames(f *testing.F) {
	client, rec, server := sessionPair(f)
	frames := func(writes ...[]byte) []byte {
		rec.out.Reset()
		for _, w := range writes {
			if err := client.writeFrame(w); err != nil {
				f.Fatal(err)
			}
		}
		return bytes.Clone(rec.out.Bytes())
	}
	one := frames([]byte("hello, shadow"))
	client.sendSeq = 0
	two := frames([]byte("stdout line\n"), bytes.Repeat([]byte{0xab}, 300))
	client.sendSeq = 0
	empty := frames(nil, []byte("after an empty frame"))
	client.sendSeq = 0

	f.Add(one)
	f.Add(two)
	f.Add(empty)
	f.Add(append(bytes.Clone(one), one...)) // a replayed frame
	f.Add(two[len(one):])                   // the second frame alone: wrong sequence number
	flipped := bytes.Clone(two)
	flipped[6] ^= 1 // a ciphertext bit
	f.Add(flipped)
	f.Add(one[:len(one)-1]) // torn in the MAC
	f.Add(one[:4])          // a header alone
	f.Add(one[:2])
	var oversized [4]byte
	binary.BigEndian.PutUint32(oversized[:], maxFrame+sha256.Size+1)
	f.Add(oversized[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Conn{raw: &scriptedClient{script: bytes.NewReader(data)}, recvKey: server.recvKey}
		want, wantErr := sessionReference(server.recvKey, data)
		var got []byte
		buf := make([]byte, 7) // smaller than most frames: the surplus is buffered
		var err error
		for reads := 0; err == nil; reads++ {
			if reads > len(data)+1 {
				t.Fatalf("%d reads of %d bytes without an end", reads, len(data))
			}
			var n int
			n, err = c.Read(buf)
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q, the frames before the first bad one hold %q", got, want)
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("read ended with %v, want %v", err, wantErr)
		}
	})
}
