package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Net is an in-memory network: components Listen on names, peers Dial
// those names, and every connection is shaped by the network's
// Profile. The whole network can be taken down and brought back up to
// exercise reconnection logic (the Grid Console's reliable mode).
type Net struct {
	mu        sync.Mutex
	prof      Profile
	seed      int64
	nextSeed  int64
	listeners map[string]*Listener
	conns     map[*conn]struct{}
	down      bool
}

// New creates an empty network shaped by p. Jitter seeds for each
// connection derive deterministically from seed.
func New(p Profile, seed int64) *Net {
	return &Net{
		prof:      p,
		seed:      seed,
		nextSeed:  seed,
		listeners: make(map[string]*Listener),
		conns:     make(map[*conn]struct{}),
	}
}

// ErrAddrInUse is returned by Listen when the name is already taken.
var ErrAddrInUse = errors.New("netsim: address already in use")

// ErrConnRefused is returned by Dial when nothing listens on the name.
var ErrConnRefused = errors.New("netsim: connection refused")

// Listen registers a listener on name.
func (n *Net) Listen(name string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, name)
	}
	l := &Listener{net: n, name: name, backlog: make(chan *conn, 64)}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to the listener registered on name. It fails with
// ErrLinkDown while the network is down and ErrConnRefused when
// nothing listens on name.
func (n *Net) Dial(name string) (net.Conn, error) {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, ErrLinkDown
	}
	l, ok := n.listeners[name]
	if !ok || l.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, name)
	}
	seed := n.nextSeed
	n.nextSeed += 2
	client, server := pair(n.prof, seed)
	client.local, client.remote = "dialer", name
	server.local, server.remote = name, "dialer"
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	client.onClose = func() { n.forget(client) }
	server.onClose = func() { n.forget(server) }
	n.mu.Unlock()

	// Connection setup costs one round trip on the profile.
	time.Sleep(n.prof.RTT())

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down || l.closed {
		client.sever()
		if n.down {
			return nil, ErrLinkDown
		}
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, name)
	}
	select {
	case l.backlog <- server:
		return client, nil
	default:
		client.sever()
		return nil, fmt.Errorf("%w: %s (backlog full)", ErrConnRefused, name)
	}
}

func (n *Net) forget(c *conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// SetDown cuts (true) or restores (false) the network. Cutting breaks
// every live connection; data queued on them is lost. Restoring allows
// new Dials but does not resurrect broken connections, exactly like a
// real outage.
func (n *Net) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	var broken []*conn
	if down {
		for c := range n.conns {
			broken = append(broken, c)
		}
		n.conns = make(map[*conn]struct{})
	}
	n.mu.Unlock()
	for _, c := range broken {
		c.sever()
	}
}

// isDown reports whether the network is currently cut.
func (n *Net) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Outage schedules a network cut starting after `after` and lasting
// `dur`, using real timers. It returns immediately.
func (n *Net) Outage(after, dur time.Duration) {
	time.AfterFunc(after, func() {
		n.SetDown(true)
		time.AfterFunc(dur, func() { n.SetDown(false) })
	})
}

// Listener accepts shaped connections dialed to its name. It
// implements net.Listener.
type Listener struct {
	net     *Net
	name    string
	backlog chan *conn
	closed  bool // guarded by net.mu
}

// Accept waits for and returns the next connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

// Close unregisters the listener. Pending backlog connections are
// broken.
func (l *Listener) Close() error {
	l.net.mu.Lock()
	if l.closed {
		l.net.mu.Unlock()
		return nil
	}
	l.closed = true
	delete(l.net.listeners, l.name)
	close(l.backlog)
	l.net.mu.Unlock()
	for c := range l.backlog {
		c.sever()
	}
	return nil
}

// Addr returns the listener's name as its address.
func (l *Listener) Addr() net.Addr { return simAddr(l.name) }

var _ net.Listener = (*Listener)(nil)
