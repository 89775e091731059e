// Package mpisim models the MPI applications the CrossGrid
// interactivity work targets: MPICH-P4 jobs (all ranks inside one
// site, a single Console Agent) and MPICH-G2 jobs (one subjob — and
// one Console Agent — per rank, possibly across sites), per Sections 3
// and 4.
//
// Ranks are goroutines communicating through an in-process Comm with
// point-to-point messages (tag matching), Barrier, Bcast and a sum
// reduction. The package's job is not to be an MPI implementation but
// to give the Grid Console and broker realistic parallel applications:
// rank 0 reads the forwarded stdin (the paper's convention), every
// rank produces stdout, and the flavor controls how many Console
// Agents a job needs.
package mpisim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// comm is the communicator shared by all ranks of one application.
type comm struct {
	size int

	mu      sync.Mutex
	cond    []*sync.Cond
	queues  [][]message
	aborted bool

	barGen   int
	barCount int
	barCond  *sync.Cond
}

type message struct {
	from, tag int
	data      []byte
}

// ErrAborted is returned from communication calls after any rank
// aborts the application.
var ErrAborted = errors.New("mpisim: application aborted")

// AnySource matches messages from any rank in recv.
const AnySource = -1

// AnyTag matches messages with any tag in recv.
const AnyTag = -1

// newComm creates a communicator for size ranks.
func newComm(size int) *comm {
	c := &comm{size: size, queues: make([][]message, size)}
	c.cond = make([]*sync.Cond, size)
	for i := range c.cond {
		c.cond[i] = sync.NewCond(&c.mu)
	}
	c.barCond = sync.NewCond(&c.mu)
	return c
}

// abort wakes every blocked rank with ErrAborted.
func (c *comm) abort() {
	c.mu.Lock()
	c.aborted = true
	for _, cd := range c.cond {
		cd.Broadcast()
	}
	c.barCond.Broadcast()
	c.mu.Unlock()
}

func (c *comm) send(from, to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mpisim: send to invalid rank %d (size %d)", to, c.size)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		return ErrAborted
	}
	c.queues[to] = append(c.queues[to], message{from: from, tag: tag, data: cp})
	c.cond[to].Broadcast()
	return nil
}

func (c *comm) recv(me, from, tag int) ([]byte, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.aborted {
			return nil, 0, ErrAborted
		}
		q := c.queues[me]
		for i, m := range q {
			if (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag) {
				c.queues[me] = append(q[:i:i], q[i+1:]...)
				return m.data, m.from, nil
			}
		}
		c.cond[me].Wait()
	}
}

func (c *comm) barrier() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		return ErrAborted
	}
	gen := c.barGen
	c.barCount++
	if c.barCount == c.size {
		c.barCount = 0
		c.barGen++
		c.barCond.Broadcast()
		return nil
	}
	for c.barGen == gen && !c.aborted {
		c.barCond.Wait()
	}
	if c.aborted {
		return ErrAborted
	}
	return nil
}

// Rank is the per-rank handle passed to the application body.
type Rank struct {
	rank int
	comm *comm
	// Stdin is the rank's standard input; by the paper's convention
	// only rank 0 consumes it.
	Stdin io.Reader
	// Stdout and Stderr are the rank's output streams, each captured
	// by a Console Agent (per subjob).
	Stdout, Stderr io.Writer
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// send delivers data to rank `to` with the given tag.
func (r *Rank) send(to, tag int, data []byte) error { return r.comm.send(r.rank, to, tag, data) }

// recv blocks for a message from `from` (or AnySource) with tag `tag`
// (or AnyTag), returning the payload and actual source.
func (r *Rank) recv(from, tag int) (data []byte, source int, err error) {
	return r.comm.recv(r.rank, from, tag)
}

// Barrier blocks until every rank reaches it.
func (r *Rank) Barrier() error { return r.comm.barrier() }

// bcastTag is reserved for collective operations.
const bcastTag = -1000

// Bcast distributes root's data to every rank and returns it.
func (r *Rank) Bcast(root int, data []byte) ([]byte, error) {
	if r.rank == root {
		for i := 0; i < r.comm.size; i++ {
			if i == root {
				continue
			}
			if err := r.comm.send(r.rank, i, bcastTag, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	got, _, err := r.comm.recv(r.rank, root, bcastTag)
	return got, err
}

// ReduceSum gathers one float64 per rank at root and returns the sum
// there (other ranks return 0). Values are transported as 8-byte
// big-endian bit patterns.
func (r *Rank) ReduceSum(root int, v float64) (float64, error) {
	if r.rank != root {
		return 0, r.send(root, bcastTag-1, encodeFloat(v))
	}
	sum := v
	for i := 1; i < r.comm.size; i++ {
		data, _, err := r.comm.recv(r.rank, AnySource, bcastTag-1)
		if err != nil {
			return 0, err
		}
		sum += decodeFloat(data)
	}
	return sum, nil
}

func encodeFloat(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func decodeFloat(b []byte) float64 {
	if len(b) != 8 {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}
