package gsi

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// maxFrame bounds a single framed message; larger writes are split.
const maxFrame = 1 << 20

// Handshake errors.
var (
	ErrAuthFailed = errors.New("gsi: peer authentication failed")
	ErrBadMAC     = errors.New("gsi: message authentication failed")
	ErrFrameSize  = errors.New("gsi: oversized frame")
)

// hello is the first handshake message in each direction.
type hello struct {
	Chain []*Certificate
	ECDH  []byte
	Nonce [32]byte
}

// auth is the second handshake message: a signature over the handshake
// transcript proving possession of the leaf private key.
type auth struct {
	Signature []byte
}

// Conn is a mutually authenticated, encrypted and integrity-protected
// connection, the simulated equivalent of a GSI (TLS/X.509) channel.
// It implements net.Conn.
type Conn struct {
	raw          net.Conn
	peerIdentity string
	peerSubject  string // the peer leaf DN: the proxy subject under delegation

	sendKey, recvKey [32]byte
	sendSeq, recvSeq uint64
	readBuf          bytes.Buffer
}

// Handshake performs mutual authentication over raw using cred,
// trusting the CAs in pool, with certificate validity evaluated at
// now(). isServer orders the key derivation; the dialing side must
// pass false and the accepting side true.
func Handshake(raw net.Conn, cred *Credential, pool *Pool, now time.Time, isServer bool) (*Conn, error) {
	ecdhKey, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: ecdh keygen: %w", err)
	}
	var mine hello
	mine.Chain = cred.Chain
	mine.ECDH = ecdhKey.PublicKey().Bytes()
	if _, err := io.ReadFull(rand.Reader, mine.Nonce[:]); err != nil {
		return nil, fmt.Errorf("gsi: nonce: %w", err)
	}

	// Exchange hellos. Both sides write first, then read, so the
	// exchange cannot deadlock on an in-memory pipe.
	errc := make(chan error, 1)
	go func() { errc <- writeMsg(raw, &mine) }()
	var theirs hello
	if err := readMsg(raw, &theirs); err != nil {
		return nil, fmt.Errorf("gsi: read peer hello: %w", err)
	}
	if err := <-errc; err != nil {
		return nil, fmt.Errorf("gsi: send hello: %w", err)
	}

	identity, err := pool.Verify(theirs.Chain, now)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}

	transcript := transcriptHash(&mine, &theirs, isServer)

	go func() { errc <- writeMsg(raw, &auth{Signature: cred.sign(transcript[:])}) }()
	var peerAuth auth
	if err := readMsg(raw, &peerAuth); err != nil {
		return nil, fmt.Errorf("gsi: read peer auth: %w", err)
	}
	if err := <-errc; err != nil {
		return nil, fmt.Errorf("gsi: send auth: %w", err)
	}
	if !verifySig(theirs.Chain[0].PublicKey, transcript[:], peerAuth.Signature) {
		return nil, fmt.Errorf("%w: bad transcript signature", ErrAuthFailed)
	}

	peerPub, err := ecdh.X25519().NewPublicKey(theirs.ECDH)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ECDH key: %v", ErrAuthFailed, err)
	}
	secret, err := ecdhKey.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: ECDH: %v", ErrAuthFailed, err)
	}

	c := &Conn{raw: raw, peerIdentity: identity, peerSubject: theirs.Chain[0].Subject}
	c2s := deriveKey(secret, transcript[:], "client->server")
	s2c := deriveKey(secret, transcript[:], "server->client")
	if isServer {
		c.sendKey, c.recvKey = s2c, c2s
	} else {
		c.sendKey, c.recvKey = c2s, s2c
	}
	return c, nil
}

// transcriptHash binds both hellos in a role-independent order
// (client's first).
func transcriptHash(mine, theirs *hello, isServer bool) [32]byte {
	client, server := mine, theirs
	if isServer {
		client, server = theirs, mine
	}
	h := sha256.New()
	for _, m := range []*hello{client, server} {
		var b bytes.Buffer
		gob.NewEncoder(&b).Encode(m)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(b.Len()))
		h.Write(n[:])
		h.Write(b.Bytes())
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func deriveKey(secret, transcript []byte, label string) [32]byte {
	m := hmac.New(sha256.New, secret)
	m.Write(transcript)
	m.Write([]byte(label))
	var k [32]byte
	copy(k[:], m.Sum(nil))
	return k
}

func verifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false // malformed keys must not panic the server
	}
	return ed25519.Verify(pub, msg, sig)
}

// PeerIdentity returns the end-entity DN of the peer (the user behind
// any proxy chain).
func (c *Conn) PeerIdentity() string { return c.peerIdentity }

// Write encrypts and sends b as one or more authenticated frames.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > maxFrame {
			n = maxFrame
		}
		if err := c.writeFrame(b[:n]); err != nil {
			return total, err
		}
		total += n
		b = b[n:]
	}
	return total, nil
}

func (c *Conn) writeFrame(plain []byte) error {
	ct := make([]byte, len(plain))
	xorKeyStream(c.sendKey, c.sendSeq, ct, plain)
	mac := frameMAC(c.sendKey, c.sendSeq, ct)
	c.sendSeq++

	frame := make([]byte, 4+len(ct)+len(mac))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(ct)+len(mac)))
	copy(frame[4:], ct)
	copy(frame[4+len(ct):], mac)
	_, err := c.raw.Write(frame)
	return err
}

// Read returns decrypted data, one frame at a time, buffering any
// surplus. An empty frame delivers nothing, so Read goes on to the
// next; a stream that ends inside a frame is torn
// (io.ErrUnexpectedEOF), and only one that ends between frames reads
// as io.EOF.
func (c *Conn) Read(b []byte) (int, error) {
	for c.readBuf.Len() == 0 {
		if err := c.readFrame(); err != nil {
			return 0, err
		}
	}
	return c.readBuf.Read(b)
}

// readFrame reads, authenticates and decrypts the next frame into
// readBuf.
func (c *Conn) readFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(c.raw, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < sha256.Size || n > maxFrame+sha256.Size {
		return ErrFrameSize
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.raw, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a header without its body
		}
		return err
	}
	ct, mac := body[:n-sha256.Size], body[n-sha256.Size:]
	want := frameMAC(c.recvKey, c.recvSeq, ct)
	if !hmac.Equal(mac, want) {
		return ErrBadMAC
	}
	plain := make([]byte, len(ct))
	xorKeyStream(c.recvKey, c.recvSeq, plain, ct)
	c.recvSeq++
	c.readBuf.Write(plain)
	return nil
}

func frameMAC(key [32]byte, seq uint64, ct []byte) []byte {
	m := hmac.New(sha256.New, key[:])
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	m.Write(s[:])
	m.Write(ct)
	return m.Sum(nil)
}

// xorKeyStream applies AES-CTR with a per-frame IV derived from seq.
func xorKeyStream(key [32]byte, seq uint64, dst, src []byte) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("gsi: aes: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], seq)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, src)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

var _ net.Conn = (*Conn)(nil)

// writeMsg sends one gob-encoded, length-prefixed handshake message.
func writeMsg(w io.Writer, v any) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return err
	}
	if b.Len() > maxFrame {
		return ErrFrameSize
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(b.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}

// readMsg receives one gob-encoded, length-prefixed handshake message.
func readMsg(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return ErrFrameSize
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}
