package console

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadMessage decodes frames from arbitrary bytes until the first
// error. No input may panic the decoder; every frame it accepts must
// re-encode through appendMessage to exactly the bytes it consumed; and
// every error must be one a reader can classify: io.EOF at a frame
// boundary, io.ErrUnexpectedEOF for a torn frame, ErrBadFrame or
// ErrFrameTooLarge.
func FuzzReadMessage(f *testing.F) {
	frame := func(m *message) []byte {
		b, err := appendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for typ := msgHello; typ <= msgEOF; typ++ {
		f.Add(frame(&message{Type: typ, Stream: stdout, Subjob: 3, Seq: 42, Data: []byte("payload")}))
	}
	empty := frame(&message{Type: msgAck, Seq: 7})
	f.Add(empty)
	f.Add(empty[:headerLen-3]) // truncated header
	oversized := bytes.Clone(empty)
	binary.BigEndian.PutUint32(oversized[12:16], MaxData+1)
	f.Add(oversized)
	typeZero := bytes.Clone(empty)
	typeZero[0] = 0
	f.Add(typeZero)

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		for {
			start := len(in) - r.Len()
			m, err := readMessage(r)
			consumed := in[start : len(in)-r.Len()]
			if err != nil {
				switch {
				case errors.Is(err, io.EOF):
					if len(consumed) > 0 {
						t.Fatalf("io.EOF after %d bytes of a frame: a torn frame must be io.ErrUnexpectedEOF", len(consumed))
					}
				case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, ErrBadFrame), errors.Is(err, ErrFrameTooLarge):
				default:
					t.Fatalf("unclassified error %v", err)
				}
				return
			}
			out, err := appendMessage(nil, m)
			if err != nil {
				t.Fatalf("accepted frame %+v does not re-encode: %v", m, err)
			}
			if !bytes.Equal(out, consumed) {
				t.Fatalf("frame %+v re-encodes to %x, consumed %x", m, out, consumed)
			}
		}
	})
}
