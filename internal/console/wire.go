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

// Stream identifies one of the three interposed byte streams.
type Stream byte

// The three standard streams, plus the base id for auxiliary
// channels.
const (
	Stdin Stream = iota
	Stdout
	Stderr
	// AuxBase is the first auxiliary stream id: the paper's future
	// work item "transparent streaming of other IO traffic" —
	// additional application output channels (monitoring feeds,
	// result files) forwarded alongside the standard streams.
	AuxBase
)

// Aux returns the stream id of auxiliary channel i (0-based).
func Aux(i int) Stream { return AuxBase + Stream(i) }

// IsAux reports whether the stream is an auxiliary channel.
func (s Stream) IsAux() bool { return s >= AuxBase }

// AuxIndex returns the 0-based auxiliary channel index (meaningful
// only when IsAux).
func (s Stream) AuxIndex() int { return int(s - AuxBase) }

// String names the stream.
func (s Stream) String() string {
	switch s {
	case Stdin:
		return "stdin"
	case Stdout:
		return "stdout"
	case Stderr:
		return "stderr"
	}
	if s.IsAux() {
		return fmt.Sprintf("aux%d", s.AuxIndex())
	}
	return fmt.Sprintf("Stream(%d)", byte(s))
}

// MsgType identifies a wire message.
type MsgType byte

// Wire message types.
const (
	// MsgHello opens (or reopens) a session: Subjob identifies the
	// sender's subjob, Seq carries the sender's next expected receive
	// sequence so the peer can replay exactly the unseen suffix.
	MsgHello MsgType = 1 + iota
	// MsgData carries Seq-numbered payload for Stream.
	MsgData
	// MsgAck acknowledges every sequence below Seq (cumulative).
	MsgAck
	// MsgEOF marks the end of Stream; carries the Seq after the last
	// data message of that stream.
	MsgEOF
)

// Message is one Grid Console frame.
type Message struct {
	Type   MsgType
	Stream Stream
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

// AppendMessage encodes m onto buf and returns the extended slice.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
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

// WriteMessage encodes and writes m as a single Write call.
func WriteMessage(w io.Writer, m *Message) error {
	buf, err := AppendMessage(make([]byte, 0, headerLen+len(m.Data)), m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads and decodes one frame. It returns io.EOF only when
// the stream ends at a frame boundary; a frame cut short is
// io.ErrUnexpectedEOF.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	m := &Message{
		Type:   MsgType(hdr[0]),
		Stream: Stream(hdr[1]),
		Subjob: binary.BigEndian.Uint16(hdr[2:4]),
		Seq:    binary.BigEndian.Uint64(hdr[4:12]),
	}
	if m.Type < MsgHello || m.Type > MsgEOF {
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
