package scanio

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestNextCountsLines(t *testing.T) {
	s := newScanner(strings.NewReader("a\nb\n\nc"))
	want := []struct {
		text string
		line int
	}{{"a", 1}, {"b", 2}, {"", 3}, {"c", 4}}
	for _, w := range want {
		text, line, err := s.next()
		if err != nil {
			t.Fatalf("line %d: %v", w.line, err)
		}
		if string(text) != w.text || line != w.line {
			t.Fatalf("got %q line %d, want %q line %d", text, line, w.text, w.line)
		}
	}
	if _, _, err := s.next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	// Next past EOF keeps returning io.EOF.
	if _, _, err := s.next(); err != io.EOF {
		t.Fatalf("second err = %v, want io.EOF", err)
	}
	if s.line != 4 {
		t.Fatalf("Line() = %d", s.line)
	}
}

func TestNextTooLong(t *testing.T) {
	long := strings.Repeat("x", MaxLine+1)
	s := newScanner(strings.NewReader("ok\n" + long + "\nnever"))
	if _, line, err := s.next(); err != nil || line != 1 {
		t.Fatalf("first line: %v (line %d)", err, line)
	}
	_, line, err := s.next()
	var tl *TooLongError
	if !errors.As(err, &tl) {
		t.Fatalf("err = %v, want *TooLongError", err)
	}
	if tl.Line != 2 || line != 2 {
		t.Fatalf("reported line %d/%d, want 2", tl.Line, line)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatal("TooLongError does not unwrap to bufio.ErrTooLong")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("message %q lacks the line number", err)
	}
}

type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }

func TestNextReaderError(t *testing.T) {
	boom := errors.New("boom")
	s := newScanner(failReader{boom})
	if _, _, err := s.next(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
