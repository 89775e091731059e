// Package console implements the Grid Console of Section 4: a split
// execution system forwarding an application's standard I/O between
// the worker node and the user's submission machine.
//
// A Console Agent (Agent) runs next to the application on the worker
// node; it owns the application's stdin/stdout/stderr through the
// interpose package, buffers output (flushing on full buffer, timeout,
// or end of line) and exchanges framed messages with a Console Shadow
// (Shadow, the paper's CS/JS) on the submission machine. The shadow
// fans user input out to every subjob's agent and merges all agents'
// output onto the user's terminal.
//
// Two streaming modes are provided, as in the paper:
//
//   - Fast: no intermediate buffering; messages go straight to the
//     network, and data in flight during a failure is lost.
//   - Reliable: every outgoing message is written through a disk spill
//     file before transmission and retired only when acknowledged;
//     on network failure both ends keep the processes running, retry
//     the connection at a configurable interval, replay unacknowledged
//     data after reconnecting, and give up (killing the process) after
//     a configurable number of consecutive failed retries.
package console

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stream identifies one of the three interposed byte streams.
type stream byte

// The three standard streams, plus the base id for auxiliary
// channels.
const (
	stdin stream = iota
	stdout
	stderr
	// auxBase is the first auxiliary stream id: the paper's future
	// work item "transparent streaming of other IO traffic" —
	// additional application output channels (monitoring feeds,
	// result files) forwarded alongside the standard streams.
	auxBase
)

// aux returns the stream id of auxiliary channel i (0-based).
func aux(i int) stream { return auxBase + stream(i) }

// isAux reports whether the stream is an auxiliary channel.
func (s stream) isAux() bool { return s >= auxBase }

// auxIndex returns the 0-based auxiliary channel index (meaningful
// only when isAux).
func (s stream) auxIndex() int { return int(s - auxBase) }

// String names the stream.
func (s stream) String() string {
	switch s {
	case stdin:
		return "stdin"
	case stdout:
		return "stdout"
	case stderr:
		return "stderr"
	}
	if s.isAux() {
		return fmt.Sprintf("aux%d", s.auxIndex())
	}
	return fmt.Sprintf("Stream(%d)", byte(s))
}

// msgType identifies a wire message.
type msgType byte

// Wire message types.
const (
	// msgHello opens (or reopens) a session: Subjob identifies the
	// sender's subjob, Seq carries the sender's next expected receive
	// sequence so the peer can replay exactly the unseen suffix.
	msgHello msgType = 1 + iota
	// msgData carries Seq-numbered payload for Stream.
	msgData
	// msgAck acknowledges every sequence below Seq (cumulative).
	msgAck
	// msgEOF marks the end of Stream; carries the Seq after the last
	// data message of that stream.
	msgEOF
)

// message is one Grid Console frame.
type message struct {
	Type   msgType
	Stream stream
	Subjob uint16
	Seq    uint64
	Data   []byte
}

// MaxData bounds a single frame payload.
const MaxData = 256 << 10

// Wire errors.
var (
	ErrFrameTooLarge = errors.New("console: frame exceeds MaxData")
	ErrBadFrame      = errors.New("console: malformed frame")
)

const headerLen = 1 + 1 + 2 + 8 + 4

// appendMessage encodes m onto buf and returns the extended slice.
func appendMessage(buf []byte, m *message) ([]byte, error) {
	if len(m.Data) > MaxData {
		return buf, ErrFrameTooLarge
	}
	var hdr [headerLen]byte
	hdr[0] = byte(m.Type)
	hdr[1] = byte(m.Stream)
	binary.BigEndian.PutUint16(hdr[2:4], m.Subjob)
	binary.BigEndian.PutUint64(hdr[4:12], m.Seq)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(m.Data)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, m.Data...)
	return buf, nil
}

// writeMessage encodes and writes m as a single Write call.
func writeMessage(w io.Writer, m *message) error {
	buf, err := appendMessage(make([]byte, 0, headerLen+len(m.Data)), m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readMessage reads and decodes one frame. It returns io.EOF only when
// the stream ends at a frame boundary; a frame cut short is
// io.ErrUnexpectedEOF.
func readMessage(r io.Reader) (*message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	m := &message{
		Type:   msgType(hdr[0]),
		Stream: stream(hdr[1]),
		Subjob: binary.BigEndian.Uint16(hdr[2:4]),
		Seq:    binary.BigEndian.Uint64(hdr[4:12]),
	}
	if m.Type < msgHello || m.Type > msgEOF {
		return nil, fmt.Errorf("%w: type %d", ErrBadFrame, hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxData {
		return nil, ErrFrameTooLarge
	}
	if n > 0 {
		m.Data = make([]byte, n)
		if _, err := io.ReadFull(r, m.Data); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header arrived: the frame is torn, not absent
			}
			return nil, err
		}
	}
	return m, nil
}
