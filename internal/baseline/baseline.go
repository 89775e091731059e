// Package baseline implements the two comparison mechanisms of
// Section 6.2 — a regular ssh session and Glogin — as interactive
// channels over the same simulated networks the Grid Console uses, so
// the Figure 6/7 experiments compare transport behaviour rather than
// testbed noise.
//
// The cost structures follow the paper's descriptions:
//
//   - ssh: a pre-established session (no grid-aware setup); data is
//     packetized into small channel packets, each paying a per-packet
//     processing (crypto) cost. Fine for small interactive traffic,
//     extra per-packet overhead for large transfers — which is why the
//     paper's reliable mode, with its larger internal buffers, beats
//     ssh at 10 KB despite touching disk.
//   - Glogin: an interactive shell tunneled through the Globus
//     gatekeeper. Besides a higher per-block processing cost, Glogin
//     moves bulk data in stop-and-wait blocks (an application-level
//     ack per block), so large transfers degrade on high-latency
//     paths — the paper's observation that Glogin performs poorly for
//     10 KB messages on the wide-area grid.
package baseline

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"crossbroker/internal/netsim"
)

// Channel is one end-to-end interactive session under test: a client
// endpoint on the submission machine and a server endpoint on the
// execution machine.
type Channel struct {
	client *endpoint
	server *endpoint
}

// Client returns the submission-machine endpoint.
func (c *Channel) Client() io.ReadWriter { return c.client }

// Server returns the execution-machine endpoint.
func (c *Channel) Server() io.ReadWriter { return c.server }

// Close tears the session down.
func (c *Channel) Close() error {
	c.client.close()
	c.server.close()
	return nil
}

// Config tunes a baseline channel.
type Config struct {
	// BlockSize is the packetization unit.
	BlockSize int
	// PerBlock is the endpoint processing cost charged per block
	// (crypto, protocol handling).
	PerBlock time.Duration
	// StopAndWait makes the sender wait for an application-level ack
	// after every block (the Glogin bulk path).
	StopAndWait bool
}

// NewSSH establishes an ssh-like session across nw. The addr must be
// unique per session. The per-block cost models 2004-era per-packet
// crypto and channel handling on Pentium III/Xeon worker nodes.
func NewSSH(nw *netsim.Net, addr string) (*Channel, error) {
	return newChannel(nw, addr, Config{
		BlockSize: 512,
		PerBlock:  150 * time.Microsecond,
	})
}

// NewGlogin establishes a Glogin-like session across nw (GSI wrapping
// is heavier than ssh's channel crypto, and bulk data moves in
// stop-and-wait blocks).
func NewGlogin(nw *netsim.Net, addr string) (*Channel, error) {
	return newChannel(nw, addr, Config{
		BlockSize:   1024,
		PerBlock:    300 * time.Microsecond,
		StopAndWait: true,
	})
}

// NewCustom establishes a session with an explicit cost structure
// (used by ablation benches).
func NewCustom(nw *netsim.Net, addr string, cfg Config) (*Channel, error) {
	return newChannel(nw, addr, cfg)
}

func newChannel(nw *netsim.Net, addr string, cfg Config) (*Channel, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 512
	}
	l, err := nw.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- c
	}()
	cc, err := nw.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var sc net.Conn
	select {
	case sc = <-accepted:
	case err := <-errc:
		cc.Close()
		return nil, fmt.Errorf("baseline: %w", err)
	}
	ch := &Channel{
		client: newEndpoint(cc, cfg),
		server: newEndpoint(sc, cfg),
	}
	return ch, nil
}

// frame types on the wire.
const (
	frameData byte = 1
	frameAck  byte = 2
)

// endpoint packetizes writes and demultiplexes data from acks.
type endpoint struct {
	conn net.Conn
	cfg  Config

	writeMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	readBuf []byte
	acks    int
	err     error
	closed  bool
}

func newEndpoint(conn net.Conn, cfg Config) *endpoint {
	e := &endpoint{conn: conn, cfg: cfg}
	e.cond = sync.NewCond(&e.mu)
	go e.readLoop()
	return e
}

func (e *endpoint) readLoop() {
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(e.conn, hdr[:]); err != nil {
			e.fail(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[1:5])
		switch hdr[0] {
		case frameData:
			data := make([]byte, n)
			if _, err := io.ReadFull(e.conn, data); err != nil {
				e.fail(err)
				return
			}
			e.mu.Lock()
			e.readBuf = append(e.readBuf, data...)
			e.cond.Broadcast()
			e.mu.Unlock()
			if e.cfg.StopAndWait {
				e.writeFrame(frameAck, nil)
			}
		case frameAck:
			e.mu.Lock()
			e.acks++
			e.cond.Broadcast()
			e.mu.Unlock()
		default:
			e.fail(fmt.Errorf("baseline: bad frame type %d", hdr[0]))
			return
		}
	}
}

func (e *endpoint) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *endpoint) writeFrame(kind byte, data []byte) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	frame := make([]byte, 5+len(data))
	frame[0] = kind
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(data)))
	copy(frame[5:], data)
	_, err := e.conn.Write(frame)
	return err
}

// Write packetizes p into blocks, charging the per-block processing
// cost and, in stop-and-wait mode, waiting for the peer's ack after
// each block.
func (e *endpoint) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > e.cfg.BlockSize {
			n = e.cfg.BlockSize
		}
		if e.cfg.PerBlock > 0 {
			spinWait(e.cfg.PerBlock)
		}
		e.mu.Lock()
		ackWait := e.acks
		e.mu.Unlock()
		if err := e.writeFrame(frameData, p[:n]); err != nil {
			return total, err
		}
		if e.cfg.StopAndWait {
			e.mu.Lock()
			for e.acks == ackWait && e.err == nil && !e.closed {
				e.cond.Wait()
			}
			err := e.err
			e.mu.Unlock()
			if err != nil {
				return total, err
			}
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Read returns buffered data, blocking until some arrives.
func (e *endpoint) Read(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.readBuf) == 0 {
		if e.err != nil {
			return 0, e.err
		}
		if e.closed {
			return 0, io.EOF
		}
		e.cond.Wait()
	}
	n := copy(p, e.readBuf)
	e.readBuf = e.readBuf[n:]
	return n, nil
}

func (e *endpoint) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.conn.Close()
}

// spinWait burns d of CPU. Per-block costs are tens of microseconds —
// far below time.Sleep's scheduling granularity — and they model CPU
// work (crypto, protocol handling), so busy-waiting is both more
// accurate and more faithful.
func spinWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}
