package console

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func newSpill(t *testing.T) *spill {
	t.Helper()
	s, err := openSpill(filepath.Join(t.TempDir(), "spill.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSpillAppendAssignsSequences(t *testing.T) {
	s := newSpill(t)
	for i := 0; i < 5; i++ {
		seq, err := s.append(stdout, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if s.next != 5 || s.pending() != 5 {
		t.Fatalf("next=%d pending=%d", s.next, s.pending())
	}
}

func TestSpillUnackedRoundTrip(t *testing.T) {
	s := newSpill(t)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, []byte("gamma")}
	streams := []stream{stdout, stderr, stdout, stdin}
	for i := range payloads {
		s.append(streams[i], payloads[i])
	}
	recs, err := s.unacked(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || r.Stream != streams[i] || !bytes.Equal(r.Data, payloads[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestSpillUnackedFrom(t *testing.T) {
	s := newSpill(t)
	for i := 0; i < 10; i++ {
		s.append(stdout, []byte{byte(i)})
	}
	recs, _ := s.unacked(7)
	if len(recs) != 3 || recs[0].Seq != 7 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestSpillAckRetiresAndTruncates(t *testing.T) {
	s := newSpill(t)
	for i := 0; i < 3; i++ {
		s.append(stdout, bytes.Repeat([]byte("x"), 100))
	}
	s.ack(2)
	if s.pending() != 1 {
		t.Fatalf("pending = %d", s.pending())
	}
	s.ack(3)
	if s.pending() != 0 {
		t.Fatalf("pending = %d after full ack", s.pending())
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("file size %d after full ack, want 0 (truncated)", fi.Size())
	}
	// New appends continue the sequence space.
	seq, _ := s.append(stdout, []byte("next"))
	if seq != 3 {
		t.Fatalf("seq = %d after truncate, want 3", seq)
	}
	recs, _ := s.unacked(0)
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, []byte("next")) {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestSpillAckIsMonotone(t *testing.T) {
	s := newSpill(t)
	s.append(stdout, []byte("a"))
	s.ack(1)
	s.ack(0) // regression must not unack
	if s.acked != 1 || s.pending() != 0 {
		t.Fatalf("acked=%d pending=%d", s.acked, s.pending())
	}
}

func TestSpillCloseRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s, err := openSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	s.append(stdout, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still exists: %v", err)
	}
	if _, err := s.append(stdout, []byte("y")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestSpillCompaction(t *testing.T) {
	s := newSpill(t)
	// Push the retired prefix past the compaction threshold: 6 MB of
	// acknowledged records followed by a live tail.
	big := bytes.Repeat([]byte("x"), 1<<20)
	for i := 0; i < 6; i++ {
		s.append(stdout, big)
	}
	tail := [][]byte{[]byte("alive-1"), []byte("alive-2")}
	for _, d := range tail {
		s.append(stderr, d)
	}
	if err := s.ack(6); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 1<<20 {
		t.Fatalf("spill file %d bytes after compaction", fi.Size())
	}
	// The live records survive, byte-identical, and replay correctly.
	recs, err := s.unacked(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records after compaction", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(6+i) || r.Stream != stderr || !bytes.Equal(r.Data, tail[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Appends continue into the compacted file.
	seq, err := s.append(stdout, []byte("after-compact"))
	if err != nil || seq != 8 {
		t.Fatalf("append after compaction: seq=%d err=%v", seq, err)
	}
	recs, _ = s.unacked(8)
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, []byte("after-compact")) {
		t.Fatalf("post-compaction append lost: %+v", recs)
	}
}

// Property: for any sequence of appends and a cut point, unacked(cut)
// returns exactly the suffix, byte-identical.
func TestSpillReplayProperty(t *testing.T) {
	f := func(chunks [][]byte, cut uint8) bool {
		dir, err := os.MkdirTemp("", "spillprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := openSpill(filepath.Join(dir, "s.log"))
		if err != nil {
			return false
		}
		defer s.Close()
		for _, c := range chunks {
			if _, err := s.append(stdout, c); err != nil {
				return false
			}
		}
		from := uint64(0)
		if len(chunks) > 0 {
			from = uint64(int(cut) % (len(chunks) + 1))
		}
		recs, err := s.unacked(from)
		if err != nil {
			return false
		}
		if len(recs) != len(chunks)-int(from) {
			return false
		}
		for i, r := range recs {
			want := chunks[int(from)+i]
			if r.Seq != from+uint64(i) || !bytes.Equal(r.Data, want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
