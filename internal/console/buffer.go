package console

import (
	"bytes"
	"sync"
	"time"
)

// flushBuffer implements the paper's output buffering: bytes
// accumulate and are flushed downstream in exactly three cases —
// when the buffer is full, when a timeout occurs, and when an
// "end of line" is found (Section 4).
type flushBuffer struct {
	mu       sync.Mutex
	buf      []byte
	max      int
	interval time.Duration
	out      func([]byte)
	timer    *time.Timer
	closed   bool
}

// outputBufferSize is the capacity of the agent's and the shadow's
// output buffers.
const outputBufferSize = 64 << 10

func newFlushBuffer(max int, interval time.Duration, out func([]byte)) *flushBuffer {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &flushBuffer{max: max, interval: interval, out: out}
}

// Write buffers p, applying the three flush rules.
func (b *flushBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	switch {
	case bytes.IndexByte(b.buf, '\n') >= 0:
		b.flushLocked()
	case len(b.buf) >= b.max:
		b.flushLocked()
	default:
		if b.timer == nil {
			b.timer = time.AfterFunc(b.interval, b.timeout)
		}
	}
	b.mu.Unlock()
	return len(p), nil
}

func (b *flushBuffer) timeout() {
	b.mu.Lock()
	b.timer = nil
	if len(b.buf) > 0 && !b.closed {
		b.flushLocked()
	}
	b.mu.Unlock()
}

// flushLocked emits the buffered bytes. The downstream callback copies
// data synchronously (spill write, frame encode), so the internal
// slice can be reused.
func (b *flushBuffer) flushLocked() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.buf) == 0 {
		return
	}
	data := b.buf
	b.buf = nil
	b.out(data)
}

// Flush forces out any buffered bytes.
func (b *flushBuffer) Flush() {
	b.mu.Lock()
	b.flushLocked()
	b.mu.Unlock()
}

// close flushes and disables the buffer.
func (b *flushBuffer) close() {
	b.mu.Lock()
	b.flushLocked()
	b.closed = true
	b.mu.Unlock()
}
