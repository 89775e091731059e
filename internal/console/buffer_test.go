package console

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

type collector struct {
	mu      sync.Mutex
	flushes [][]byte
}

func (c *collector) sink(b []byte) {
	c.mu.Lock()
	c.flushes = append(c.flushes, append([]byte(nil), b...))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flushes)
}

func (c *collector) all() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []byte
	for _, f := range c.flushes {
		out = append(out, f...)
	}
	return out
}

func TestFlushOnNewline(t *testing.T) {
	var c collector
	b := newFlushBuffer(1<<20, time.Hour, c.sink)
	b.Write([]byte("partial"))
	if c.count() != 0 {
		t.Fatal("flushed without newline, full buffer, or timeout")
	}
	b.Write([]byte(" line\n"))
	if c.count() != 1 || string(c.all()) != "partial line\n" {
		t.Fatalf("flushes = %q", c.all())
	}
}

func TestFlushOnFullBuffer(t *testing.T) {
	var c collector
	b := newFlushBuffer(10, time.Hour, c.sink)
	b.Write([]byte("0123456789ABCDEF")) // 16 >= 10, no newline
	if c.count() != 1 || string(c.all()) != "0123456789ABCDEF" {
		t.Fatalf("flushes = %q (n=%d)", c.all(), c.count())
	}
}

func TestFlushOnTimeout(t *testing.T) {
	var c collector
	b := newFlushBuffer(1<<20, 20*time.Millisecond, c.sink)
	b.Write([]byte("no newline"))
	deadline := time.Now().Add(2 * time.Second)
	for c.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if string(c.all()) != "no newline" {
		t.Fatalf("flushes = %q", c.all())
	}
}

func TestCloseFlushesRemainder(t *testing.T) {
	var c collector
	b := newFlushBuffer(1<<20, time.Hour, c.sink)
	b.Write([]byte("tail"))
	b.close()
	if string(c.all()) != "tail" {
		t.Fatalf("flushes = %q", c.all())
	}
}

func TestNoEmptyFlushes(t *testing.T) {
	var c collector
	b := newFlushBuffer(1<<20, time.Hour, c.sink)
	b.Flush()
	b.close()
	if c.count() != 0 {
		t.Fatalf("%d empty flushes", c.count())
	}
}

func TestOrderPreservedUnderMixedWrites(t *testing.T) {
	var c collector
	b := newFlushBuffer(32, 5*time.Millisecond, c.sink)
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		chunk := []byte("chunk-")
		if i%7 == 0 {
			chunk = append(chunk, '\n')
		}
		want.Write(chunk)
		b.Write(chunk)
	}
	b.close()
	if !bytes.Equal(c.all(), want.Bytes()) {
		t.Fatal("buffered output lost or reordered")
	}
}
