package netsim

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrLinkDown is returned by reads and writes on a connection whose
// link has been cut by failure injection. It models a TCP reset.
var ErrLinkDown = errors.New("netsim: link down")

// conn is one end of a shaped in-memory connection. It implements
// net.Conn. Data written on one end becomes readable on the other
// after the profile's propagation, jitter and serialization delays.
type conn struct {
	local, remote string
	in            *halfPipe // data arriving at this end
	out           *halfPipe // data leaving this end (peer's in)
	onClose       func()
}

// pair returns the two ends of a shaped connection using profile p.
// Jitter is drawn from a generator seeded with seed, so a fixed seed
// yields reproducible delivery times.
func pair(p Profile, seed int64) (client, server *conn) {
	rngA := rand.New(rand.NewSource(seed))
	rngB := rand.New(rand.NewSource(seed + 1))
	ab := newHalfPipe(p, rngA) // a -> b
	ba := newHalfPipe(p, rngB) // b -> a
	a := &conn{local: "client", remote: "server", in: ba, out: ab}
	b := &conn{local: "server", remote: "client", in: ab, out: ba}
	return a, b
}

// sever severs the link in both directions: queued undelivered data is
// dropped and subsequent operations on either end fail with
// ErrLinkDown. This is the failure-injection hook used to exercise the
// Grid Console's reliable mode.
func (c *conn) sever() {
	c.in.breakLink()
	c.out.breakLink()
}

// Read implements net.Conn.
func (c *conn) Read(b []byte) (int, error) { return c.in.read(b) }

// Write implements net.Conn.
func (c *conn) Write(b []byte) (int, error) { return c.out.write(b) }

// Close closes this end; the peer's pending data still drains, after
// which its reads return io.EOF.
func (c *conn) Close() error {
	c.out.closeWrite()
	c.in.closeRead()
	if c.onClose != nil {
		c.onClose()
	}
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return simAddr(c.local) }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return simAddr(c.remote) }

// SetDeadline implements net.Conn.
func (c *conn) SetDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block in this
// model, so the deadline is a no-op.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

type segment struct {
	data  []byte
	ready time.Time
}

// halfPipe is one direction of a shaped connection.
type halfPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	prof     Profile
	rng      *rand.Rand
	segs     []segment
	nextFree time.Time // link serialization horizon
	wclosed  bool
	rclosed  bool
	broken   bool
	deadline time.Time
}

func newHalfPipe(p Profile, rng *rand.Rand) *halfPipe {
	h := &halfPipe{prof: p, rng: rng}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *halfPipe) write(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken {
		return 0, ErrLinkDown
	}
	if h.wclosed {
		return 0, io.ErrClosedPipe
	}
	now := time.Now()
	// Serialization: segments occupy the link back to back.
	start := now
	if h.nextFree.After(start) {
		start = h.nextFree
	}
	var ser time.Duration
	if h.prof.BytesPerSec > 0 {
		ser = time.Duration(float64(len(b)) / h.prof.BytesPerSec * float64(time.Second))
	}
	h.nextFree = start.Add(ser)
	ready := h.nextFree.Add(h.prof.OneWayDelay + h.prof.PerMessageCost + h.prof.jitterSample(h.rng))
	data := make([]byte, len(b))
	copy(data, b)
	h.segs = append(h.segs, segment{data: data, ready: ready})
	h.cond.Broadcast()
	return len(b), nil
}

func (h *halfPipe) read(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.broken {
			return 0, ErrLinkDown
		}
		if h.rclosed {
			return 0, io.ErrClosedPipe
		}
		if !h.deadline.IsZero() && !time.Now().Before(h.deadline) {
			return 0, timeoutError{}
		}
		if len(h.segs) > 0 {
			seg := h.segs[0]
			wait := time.Until(seg.ready)
			if wait <= 0 {
				n := copy(b, seg.data)
				if n < len(seg.data) {
					h.segs[0].data = seg.data[n:]
				} else {
					h.segs = h.segs[1:]
				}
				return n, nil
			}
			h.timedWait(wait)
			continue
		}
		if h.wclosed {
			return 0, io.EOF
		}
		if h.deadline.IsZero() {
			h.cond.Wait()
		} else {
			h.timedWait(time.Until(h.deadline))
		}
	}
}

// timedWait releases the lock and waits up to roughly d for a state
// change. The caller must hold h.mu; holding it between AfterFunc and
// cond.Wait guarantees the timer's broadcast cannot be missed. A timer
// that outlives the wait broadcasts once more, which is harmless.
func (h *halfPipe) timedWait(d time.Duration) {
	if d <= 0 {
		d = time.Microsecond
	}
	t := time.AfterFunc(d, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	h.cond.Wait()
	t.Stop()
}

func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) breakLink() {
	h.mu.Lock()
	h.broken = true
	h.segs = nil // in-flight data is lost
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	h.deadline = t
	h.cond.Broadcast()
	h.mu.Unlock()
}

type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Conn = (*conn)(nil)
