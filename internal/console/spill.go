package console

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// spill is the reliable mode's write-ahead buffer: an append-only disk
// file of sequence-numbered records. Every outgoing message is written
// here before transmission ("intermediate buffering in a file of the
// I/O stream", Section 3) and retired by cumulative acknowledgment;
// after a reconnect the unacknowledged suffix is replayed from disk.
//
// spill is safe for concurrent use.
type spill struct {
	mu   sync.Mutex
	f    *os.File
	path string

	// delay models additional per-record storage latency. The paper's
	// 2004-era worker nodes paid a visible cost per spill write; on
	// modern page-cached NVMe the physical cost all but vanishes, so
	// the experiments reintroduce it explicitly (see EXPERIMENTS.md).
	// Zero (the default, used by the production gcagent/gcshadow
	// path) charges only the real I/O.
	delay time.Duration

	next  uint64 // next sequence to assign
	acked uint64 // sequences below this are acknowledged
	recs  []spillRec
}

// setDelay sets the modeled per-record storage latency.
func (s *spill) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

type spillRec struct {
	seq    uint64
	stream stream
	off    int64
	size   int
}

// record layout on disk: [8 seq][1 stream][4 len][payload]
const spillHdrLen = 8 + 1 + 4

// openSpill creates (truncating) the spill file at path.
func openSpill(path string) (*spill, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("console: open spill: %w", err)
	}
	return &spill{f: f, path: path}, nil
}

// append writes one record through to disk and returns its sequence
// number.
func (s *spill) append(stream stream, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, os.ErrClosed
	}
	off, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	seq := s.next
	buf := make([]byte, spillHdrLen+len(data))
	binary.BigEndian.PutUint64(buf[0:8], seq)
	buf[8] = byte(stream)
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(data)))
	copy(buf[spillHdrLen:], data)
	if _, err := s.f.Write(buf); err != nil {
		return 0, fmt.Errorf("console: spill write: %w", err)
	}
	if s.delay > 0 {
		for start := time.Now(); time.Since(start) < s.delay; {
			// Spin: the modeled latencies are far below time.Sleep's
			// scheduling granularity.
		}
	}
	s.recs = append(s.recs, spillRec{seq: seq, stream: stream, off: off + spillHdrLen, size: len(data)})
	s.next++
	return seq, nil
}

// compactThreshold triggers a rewrite of the spill file when the
// retired prefix exceeds it, bounding disk use during long sessions
// with intermittent connectivity.
const compactThreshold = 4 << 20

// ack retires every record with sequence < upTo. When the file becomes
// empty it is truncated; when a large retired prefix accumulates the
// live suffix is compacted into a fresh file.
func (s *spill) ack(upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if upTo > s.acked {
		s.acked = upTo
	}
	i := 0
	for i < len(s.recs) && s.recs[i].seq < s.acked {
		i++
	}
	s.recs = s.recs[i:]
	if s.f == nil {
		return nil
	}
	if len(s.recs) == 0 {
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		_, err := s.f.Seek(0, io.SeekStart)
		return err
	}
	if s.recs[0].off > compactThreshold {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the unacknowledged records to the start of a
// fresh file. Caller holds s.mu.
func (s *spill) compactLocked() error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("console: spill compact: %w", err)
	}
	var off int64
	newRecs := make([]spillRec, 0, len(s.recs))
	for _, r := range s.recs {
		data := make([]byte, r.size)
		if _, err := s.f.ReadAt(data, r.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("console: spill compact read: %w", err)
		}
		buf := make([]byte, spillHdrLen+len(data))
		binary.BigEndian.PutUint64(buf[0:8], r.seq)
		buf[8] = byte(r.stream)
		binary.BigEndian.PutUint32(buf[9:13], uint32(len(data)))
		copy(buf[spillHdrLen:], data)
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("console: spill compact write: %w", err)
		}
		newRecs = append(newRecs, spillRec{seq: r.seq, stream: r.stream, off: off + spillHdrLen, size: r.size})
		off += int64(len(buf))
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("console: spill compact rename: %w", err)
	}
	s.f.Close()
	s.f = tmp
	s.recs = newRecs
	return nil
}

// record is one replayed spill entry.
type record struct {
	Seq    uint64
	Stream stream
	Data   []byte
}

// unacked reads back every unacknowledged record with sequence >= from
// in order, for replay after a reconnect.
func (s *spill) unacked(from uint64) ([]record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, os.ErrClosed
	}
	var out []record
	for _, r := range s.recs {
		if r.seq < from {
			continue
		}
		data := make([]byte, r.size)
		if _, err := s.f.ReadAt(data, r.off); err != nil {
			return nil, fmt.Errorf("console: spill read: %w", err)
		}
		out = append(out, record{Seq: r.seq, Stream: r.stream, Data: data})
	}
	return out, nil
}

// pending reports the number of unacknowledged records.
func (s *spill) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Close closes and removes the spill file.
func (s *spill) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
