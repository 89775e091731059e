package gsi

import (
	"bytes"
	"encoding/binary"
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
