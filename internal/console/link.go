package console

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"crossbroker/internal/jdl"
)

// ErrLinkFailed is reported after the link has exhausted its
// reconnection budget; per the paper the process is then killed.
var ErrLinkFailed = errors.New("console: link failed permanently")

// ErrLinkClosed is returned by send after Close.
var ErrLinkClosed = errors.New("console: link closed")

// linkConfig configures one agent<->shadow link endpoint.
type linkConfig struct {
	// Mode selects fast or reliable streaming.
	Mode jdl.StreamingMode
	// Subjob identifies this agent's subjob in Hello messages (agents
	// only; shadows learn it from the peer).
	Subjob uint16
	// RetryInterval is the pause between reconnection attempts
	// ("the number of seconds between each retry are configurable").
	RetryInterval time.Duration
	// MaxRetries is the number of consecutive failed reconnections
	// after which the link gives up.
	MaxRetries int
	// SpillPath is the reliable mode write-ahead file; required when
	// Mode is ReliableStreaming.
	SpillPath string
	// DiskCost is a modeled per-record storage latency added to every
	// reliable spill write (era calibration for experiments; zero in
	// production).
	DiskCost time.Duration
}

func (c *linkConfig) setDefaults() {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
}

// handshakeTimeout bounds the Hello exchange on a fresh connection.
const handshakeTimeout = 5 * time.Second

// receiver consumes data arriving on a link. eof marks the end of the
// given stream.
type receiver func(stream stream, data []byte, eof bool)

// link is one endpoint of the agent<->shadow channel. A dial-side link
// (the Console Agent's) owns connection establishment and the retry
// loop; an accept-side link (the shadow's, one per subjob) is handed
// fresh connections by the shadow's accept loop.
type link struct {
	cfg  linkConfig
	dial func() (net.Conn, error) // nil on the accept side

	mu       sync.Mutex
	conn     net.Conn
	sendSeq  uint64 // fast mode sequence counter
	recvNext uint64
	spill    *spill
	closed   bool
	failed   bool
	retrying bool
	watchGen int // invalidates stale give-up watchdogs
	// pendingEOF tracks fast-mode stream EOFs not yet written to a
	// live connection. EOF is control information the agent knows
	// authoritatively, so unlike fast-mode data it is re-sent after a
	// reconnect.
	pendingEOF map[stream]bool

	receiver receiver
	onFail   func(error)
}

// newDialLink creates the agent-side endpoint. dial must produce a
// ready-to-use connection to the shadow (typically netsim or TCP,
// already wrapped in GSI). The link connects lazily on start.
func newDialLink(cfg linkConfig, dial func() (net.Conn, error), recv receiver, onFail func(error)) (*link, error) {
	cfg.setDefaults()
	l := &link{cfg: cfg, dial: dial, receiver: recv, onFail: onFail}
	if err := l.initSpill(); err != nil {
		return nil, err
	}
	return l, nil
}

// newAcceptLink creates the shadow-side endpoint for one subjob.
func newAcceptLink(cfg linkConfig, recv receiver, onFail func(error)) (*link, error) {
	cfg.setDefaults()
	l := &link{cfg: cfg, receiver: recv, onFail: onFail}
	if err := l.initSpill(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *link) initSpill() error {
	if l.cfg.Mode != jdl.ReliableStreaming {
		return nil
	}
	if l.cfg.SpillPath == "" {
		return errors.New("console: reliable link needs SpillPath")
	}
	sp, err := openSpill(l.cfg.SpillPath)
	if err != nil {
		return err
	}
	sp.setDelay(l.cfg.DiskCost)
	l.spill = sp
	return nil
}

// start connects a dial-side link (asynchronously retrying per the
// configuration). It is a no-op on accept-side links.
func (l *link) start() {
	if l.dial == nil {
		return
	}
	l.mu.Lock()
	l.startRetryLocked()
	l.mu.Unlock()
}

// startRetryLocked launches the reconnect loop if not already running.
func (l *link) startRetryLocked() {
	if l.retrying || l.closed || l.failed || l.dial == nil {
		return
	}
	l.retrying = true
	go l.retryLoop()
}

func (l *link) retryLoop() {
	var lastErr error
	for attempt := 0; attempt < l.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(l.cfg.RetryInterval)
		}
		l.mu.Lock()
		if l.closed {
			l.retrying = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()

		conn, err := l.dial()
		if err != nil {
			lastErr = err
			continue
		}
		if err := l.handshakeDial(conn); err != nil {
			lastErr = err
			conn.Close()
			continue
		}
		l.mu.Lock()
		if l.conn == nil && !l.closed {
			// The fresh connection died before the loop stood down (its
			// replay failed, or its reader saw it break), and
			// markDeadLocked left the reconnect to this loop.
			l.mu.Unlock()
			lastErr = errors.New("connection lost during install")
			continue
		}
		l.retrying = false
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	l.retrying = false
	l.failed = true
	cb := l.onFail
	l.mu.Unlock()
	if cb != nil {
		cb(fmt.Errorf("%w: %d attempts, last error: %v", ErrLinkFailed, l.cfg.MaxRetries, lastErr))
	}
}

// handshakeDial performs the dial-side Hello exchange and installs the
// connection.
func (l *link) handshakeDial(conn net.Conn) error {
	l.mu.Lock()
	hello := &message{Type: msgHello, Subjob: l.cfg.Subjob, Seq: l.recvNext}
	l.mu.Unlock()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := writeMessage(conn, hello); err != nil {
		return err
	}
	peer, err := readMessage(conn)
	if err != nil {
		return err
	}
	if peer.Type != msgHello {
		return fmt.Errorf("%w: expected hello, got type %d", ErrBadFrame, peer.Type)
	}
	conn.SetReadDeadline(time.Time{})
	return l.install(conn, peer)
}

// attach installs a connection accepted by the shadow, replying to the
// peer's Hello. It replaces any previous connection.
func (l *link) attach(conn net.Conn, peerHello *message) error {
	l.mu.Lock()
	hello := &message{Type: msgHello, Subjob: l.cfg.Subjob, Seq: l.recvNext}
	l.mu.Unlock()
	if err := writeMessage(conn, hello); err != nil {
		conn.Close()
		return err
	}
	return l.install(conn, peerHello)
}

// install replaces the live connection, replays unacknowledged data
// past the peer's receive horizon (reliable mode), and starts the read
// loop.
func (l *link) install(conn net.Conn, peerHello *message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		conn.Close()
		return ErrLinkClosed
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	if l.spill != nil {
		// Everything below the peer's next expected sequence has been
		// delivered.
		if err := l.spill.ack(peerHello.Seq); err != nil {
			return err
		}
		recs, err := l.spill.unacked(peerHello.Seq)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := writeMessage(conn, recordMessage(r)); err != nil {
				// The fresh connection died during replay; the retry
				// loop (or next attach) will try again.
				l.markDeadLocked(conn)
				break
			}
		}
	} else {
		for stream := range l.pendingEOF {
			m := &message{Type: msgEOF, Stream: stream, Subjob: l.cfg.Subjob, Seq: l.sendSeq}
			l.sendSeq++
			if err := writeMessage(conn, m); err != nil {
				l.markDeadLocked(conn)
				break
			}
			delete(l.pendingEOF, stream)
		}
	}
	go l.readLoop(conn)
	return nil
}

func recordMessage(r record) *message {
	m := &message{Type: msgData, Stream: r.Stream, Seq: r.Seq, Data: r.Data}
	if len(r.Data) == 0 {
		m.Type = msgEOF
	}
	return m
}

// send transmits data on the given stream, or marks its end when eof
// is set. In reliable mode the data is written through the spill file
// first and send succeeds even while the network is down (the data
// will be replayed); in fast mode data is written straight to the
// connection and silently dropped when the link is down, as the paper
// specifies.
func (l *link) send(stream stream, data []byte, eof bool) error {
	if !eof && len(data) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLinkClosed
	}
	if l.failed {
		return ErrLinkFailed
	}
	m := &message{Type: msgData, Stream: stream, Subjob: l.cfg.Subjob, Data: data}
	if eof {
		m.Type = msgEOF
		m.Data = nil
	}
	if l.spill != nil {
		seq, err := l.spill.append(stream, m.Data)
		if err != nil {
			return err
		}
		m.Seq = seq
	} else {
		m.Seq = l.sendSeq
		l.sendSeq++
	}
	if l.conn == nil {
		// Reliable: buffered on disk for replay. Fast: data is lost,
		// but EOF is remembered and re-sent on reconnect.
		if l.spill == nil && eof {
			l.notePendingEOFLocked(stream)
		}
		return nil
	}
	if err := writeMessage(l.conn, m); err != nil {
		if l.spill == nil && eof {
			l.notePendingEOFLocked(stream)
		}
		l.markDeadLocked(l.conn)
	}
	return nil
}

func (l *link) notePendingEOFLocked(st stream) {
	if l.pendingEOF == nil {
		l.pendingEOF = make(map[stream]bool)
	}
	l.pendingEOF[st] = true
}

// markDeadLocked drops the connection (if it is still the current one)
// and, on the dial side, starts the retry loop. On the accept side it
// arms the give-up watchdog instead.
func (l *link) markDeadLocked(conn net.Conn) {
	if l.conn != conn || l.conn == nil {
		return
	}
	l.conn.Close()
	l.conn = nil
	l.startRetryLocked()
	l.startWatchdogLocked()
}

// startWatchdogLocked arms the accept-side give-up timer: reconnection
// is the dialing agent's job, so the shadow's link just waits out the
// peer's whole retry budget (plus one interval of slack for the last
// in-flight attempt) and then declares the link permanently failed.
func (l *link) startWatchdogLocked() {
	if l.dial != nil || l.onFail == nil || l.failed || l.closed {
		return
	}
	l.watchGen++
	gen := l.watchGen
	go l.watchdog(gen)
}

func (l *link) watchdog(gen int) {
	grace := time.Duration(l.cfg.MaxRetries+1) * l.cfg.RetryInterval
	time.Sleep(grace)
	l.mu.Lock()
	if gen != l.watchGen || l.conn != nil || l.failed || l.closed {
		l.mu.Unlock()
		return
	}
	l.failed = true
	cb := l.onFail
	l.mu.Unlock()
	cb(fmt.Errorf("%w: no reconnection within %v", ErrLinkFailed, grace))
}

func (l *link) readLoop(conn net.Conn) {
	for {
		m, err := readMessage(conn)
		if err != nil {
			l.mu.Lock()
			l.markDeadLocked(conn)
			l.mu.Unlock()
			return
		}
		switch m.Type {
		case msgData, msgEOF:
			l.handleData(conn, m)
		case msgAck:
			if l.spill != nil {
				// Best effort: a failed truncate only delays spill-file
				// reclamation until the next ack.
				_ = l.spill.ack(m.Seq)
			}
		case msgHello:
			// Duplicate hello on an established connection: ignore.
		}
	}
}

func (l *link) handleData(conn net.Conn, m *message) {
	reliable := l.cfg.Mode == jdl.ReliableStreaming
	if reliable {
		l.mu.Lock()
		if m.Seq < l.recvNext {
			// Duplicate from a replay: re-acknowledge and drop.
			if l.conn == conn && l.conn != nil {
				if err := writeMessage(l.conn, &message{Type: msgAck, Seq: l.recvNext}); err != nil {
					l.markDeadLocked(l.conn)
				}
			}
			l.mu.Unlock()
			return
		}
		l.recvNext = m.Seq + 1
		if l.conn == conn && l.conn != nil {
			if err := writeMessage(l.conn, &message{Type: msgAck, Seq: l.recvNext}); err != nil {
				l.markDeadLocked(l.conn)
			}
		}
		l.mu.Unlock()
	}
	if l.receiver != nil {
		l.receiver(m.Stream, m.Data, m.Type == msgEOF)
	}
}

// waitDrained blocks until all reliable data has been acknowledged —
// or, on fast links, until any pending EOFs have reached a live
// connection — or the timeout elapses, reporting whether the link
// drained.
func (l *link) waitDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l.drained() {
			return true
		}
		l.mu.Lock()
		failed := l.failed || l.closed
		l.mu.Unlock()
		if failed {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return l.drained()
}

func (l *link) drained() bool {
	if l.spill != nil {
		return l.spill.pending() == 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pendingEOF) == 0
}

// waitConnected blocks until the link holds a live connection, has
// failed permanently, or was closed, reporting whether it connected.
// The agent uses it to avoid streaming into the void before the first
// connection in fast mode.
func (l *link) waitConnected() bool {
	for {
		l.mu.Lock()
		conn, stop := l.conn != nil, l.failed || l.closed
		l.mu.Unlock()
		if conn {
			return true
		}
		if stop {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// connected reports whether a live connection is installed.
func (l *link) connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}

// Close tears the link down and removes its spill file.
func (l *link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	sp := l.spill
	l.mu.Unlock()
	if sp != nil {
		return sp.Close()
	}
	return nil
}
