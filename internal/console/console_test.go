package console

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// syncWriter collects output thread-safely.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// session wires one shadow and n agents over a netsim network.
type session struct {
	nw     *netsim.Net
	shadow *Shadow
	agents []*Agent
	out    *syncWriter
	errw   *syncWriter
}

func startSession(t *testing.T, mode jdl.StreamingMode, apps []interpose.AppFunc, stdin io.Reader) *session {
	t.Helper()
	nw := netsim.New(netsim.Loopback(), 42)
	l, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	s := &session{nw: nw, out: &syncWriter{}, errw: &syncWriter{}}
	shadow, err := StartShadow(ShadowConfig{
		Mode:          mode,
		Subjobs:       len(apps),
		Accept:        func() (net.Conn, error) { return l.Accept() },
		Stdout:        s.out,
		Stderr:        s.errw,
		Stdin:         stdin,
		SpillDir:      t.TempDir(),
		FlushInterval: 10 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shadow.Close() })
	s.shadow = shadow

	for i, app := range apps {
		proc, err := interpose.Func(app)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := StartAgent(AgentConfig{
			Subjob:        uint16(i),
			Mode:          mode,
			Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
			SpillDir:      t.TempDir(),
			FlushInterval: 10 * time.Millisecond,
			RetryInterval: 20 * time.Millisecond,
			MaxRetries:    100,
		}, proc)
		if err != nil {
			t.Fatal(err)
		}
		s.agents = append(s.agents, agent)
	}
	return s
}

func TestFastModeEndToEnd(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		fmt.Fprintln(stdout, "hello from the worker node")
		fmt.Fprintln(stderr, "warning: simulated")
		return nil
	}
	s := startSession(t, jdl.FastStreaming, []interpose.AppFunc{app}, nil)
	for _, a := range s.agents {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	if got := s.out.String(); got != "hello from the worker node\n" {
		t.Fatalf("stdout = %q", got)
	}
	if got := s.errw.String(); got != "warning: simulated\n" {
		t.Fatalf("stderr = %q", got)
	}
}

func TestReliableModeEndToEnd(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		for i := 0; i < 20; i++ {
			fmt.Fprintf(stdout, "line %02d\n", i)
		}
		return nil
	}
	s := startSession(t, jdl.ReliableStreaming, []interpose.AppFunc{app}, nil)
	if err := s.agents[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if !s.shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	var want strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&want, "line %02d\n", i)
	}
	if got := s.out.String(); got != want.String() {
		t.Fatalf("stdout = %q", got)
	}
}

func TestInteractiveEcho(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			fmt.Fprintf(stdout, "echo: %s\n", sc.Text())
		}
		return sc.Err()
	}
	stdinR, stdinW := io.Pipe()
	s := startSession(t, jdl.FastStreaming, []interpose.AppFunc{app}, stdinR)

	// Wait for the agent to connect before typing (fast mode drops
	// earlier input).
	deadline := time.Now().Add(5 * time.Second)
	for s.shadow.Attached() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	io.WriteString(stdinW, "first command\n")
	io.WriteString(stdinW, "second command\n")
	stdinW.Close()

	if err := s.agents[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if !s.shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	want := "echo: first command\necho: second command\n"
	if got := s.out.String(); got != want {
		t.Fatalf("stdout = %q, want %q", got, want)
	}
}

func TestMPIStyleMultipleSubjobs(t *testing.T) {
	// MPICH-G2: every subjob produces output; input goes to every
	// subjob but only rank 0 consumes it (Section 4).
	mkApp := func(rank int) interpose.AppFunc {
		return func(stdin io.Reader, stdout, stderr io.Writer) error {
			if rank == 0 {
				sc := bufio.NewScanner(stdin)
				if sc.Scan() {
					fmt.Fprintf(stdout, "rank0 got: %s\n", sc.Text())
				}
			}
			fmt.Fprintf(stdout, "subjob %d done\n", rank)
			return nil
		}
	}
	stdinR, stdinW := io.Pipe()
	s := startSession(t, jdl.ReliableStreaming,
		[]interpose.AppFunc{mkApp(0), mkApp(1), mkApp(2)}, stdinR)

	io.WriteString(stdinW, "steer +1\n")
	stdinW.Close()

	for _, a := range s.agents {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	got := s.out.String()
	if !strings.Contains(got, "rank0 got: steer +1") {
		t.Fatalf("rank 0 missed its input: %q", got)
	}
	for rank := 0; rank < 3; rank++ {
		if !strings.Contains(got, fmt.Sprintf("subjob %d done", rank)) {
			t.Fatalf("missing subjob %d output: %q", rank, got)
		}
	}
}

func TestReliableSurvivesOutage(t *testing.T) {
	// The application emits lines across a network outage; reliable
	// mode must deliver every byte, in order, exactly once.
	release := make(chan struct{})
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		for i := 0; i < 10; i++ {
			fmt.Fprintf(stdout, "pre %d\n", i)
		}
		<-release
		for i := 0; i < 10; i++ {
			fmt.Fprintf(stdout, "post %d\n", i)
		}
		return nil
	}
	s := startSession(t, jdl.ReliableStreaming, []interpose.AppFunc{app}, nil)

	// Let the first half flow, then cut the network.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(s.out.String(), "pre 9") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.nw.SetDown(true)
	close(release)
	time.Sleep(60 * time.Millisecond) // app writes while the link is down
	s.nw.SetDown(false)

	if err := s.agents[0].Wait(); err != nil {
		t.Fatalf("agent: %v", err)
	}
	if !s.shadow.Wait(10 * time.Second) {
		t.Fatal("shadow did not complete after outage")
	}
	var want strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&want, "pre %d\n", i)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&want, "post %d\n", i)
	}
	if got := s.out.String(); got != want.String() {
		t.Fatalf("output across outage:\n got %q\nwant %q", got, want.String())
	}
}

func TestReliableStdinSurvivesOutage(t *testing.T) {
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		data, _ := io.ReadAll(stdin)
		fmt.Fprintf(stdout, "received %d lines\n", bytes.Count(data, []byte("\n")))
		return nil
	}
	stdinR, stdinW := io.Pipe()
	s := startSession(t, jdl.ReliableStreaming, []interpose.AppFunc{app}, stdinR)

	io.WriteString(stdinW, "line A\n")
	time.Sleep(30 * time.Millisecond)
	s.nw.SetDown(true)
	io.WriteString(stdinW, "line B\n") // spilled on the shadow side
	io.WriteString(stdinW, "line C\n")
	time.Sleep(60 * time.Millisecond)
	s.nw.SetDown(false)
	io.WriteString(stdinW, "line D\n")
	stdinW.Close()

	if err := s.agents[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if !s.shadow.Wait(10 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	if got := s.out.String(); got != "received 4 lines\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestAgentGivesUpAndKillsProcess(t *testing.T) {
	// No shadow listens and the network stays down: after MaxRetries
	// the agent must kill the application (Section 4).
	nw := netsim.New(netsim.Loopback(), 7)
	nw.SetDown(true)

	proc, err := interpose.Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		io.ReadAll(stdin) // blocks until killed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := StartAgent(AgentConfig{
		Mode:          jdl.ReliableStreaming,
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      t.TempDir(),
		RetryInterval: 5 * time.Millisecond,
		MaxRetries:    4,
	}, proc)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- agent.Wait() }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrLinkFailed) {
			t.Fatalf("Wait = %v, want ErrLinkFailed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not give up")
	}
}

func TestFastModeLosesDataDuringOutageButRecovers(t *testing.T) {
	step := make(chan struct{})
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		fmt.Fprintln(stdout, "before outage")
		<-step
		fmt.Fprintln(stdout, "during outage") // will be lost
		<-step
		fmt.Fprintln(stdout, "after outage")
		return nil
	}
	s := startSession(t, jdl.FastStreaming, []interpose.AppFunc{app}, nil)

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(s.out.String(), "before outage") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.nw.SetDown(true)
	step <- struct{}{}
	time.Sleep(50 * time.Millisecond)
	s.nw.SetDown(false)
	// Wait for the agent to re-establish its link before the final
	// line, so only the middle line is lost.
	for !s.agents[0].link.connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	step <- struct{}{}

	if err := s.agents[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if !s.shadow.Wait(10 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	got := s.out.String()
	if !strings.Contains(got, "before outage") || !strings.Contains(got, "after outage") {
		t.Fatalf("fast mode did not recover: %q", got)
	}
	if strings.Contains(got, "during outage") {
		t.Fatalf("fast mode delivered data written during the outage: %q", got)
	}
}

func TestShadowMergesOutputWithoutCorruption(t *testing.T) {
	// Several subjobs write whole lines concurrently; every line must
	// arrive exactly once (order across subjobs is unspecified).
	const lines = 30
	mkApp := func(rank int) interpose.AppFunc {
		return func(stdin io.Reader, stdout, stderr io.Writer) error {
			for i := 0; i < lines; i++ {
				fmt.Fprintf(stdout, "r%d-%03d\n", rank, i)
			}
			return nil
		}
	}
	s := startSession(t, jdl.ReliableStreaming,
		[]interpose.AppFunc{mkApp(0), mkApp(1), mkApp(2), mkApp(3)}, nil)
	for _, a := range s.agents {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.shadow.Wait(10 * time.Second) {
		t.Fatal("shadow did not complete")
	}
	got := strings.Split(strings.TrimSpace(s.out.String()), "\n")
	if len(got) != 4*lines {
		t.Fatalf("got %d lines, want %d", len(got), 4*lines)
	}
	seen := make(map[string]bool)
	for _, l := range got {
		if seen[l] {
			t.Fatalf("duplicate line %q", l)
		}
		seen[l] = true
	}
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []*message{
		{Type: msgHello, Subjob: 3, Seq: 9},
		{Type: msgData, Stream: stdout, Seq: 1, Data: []byte("payload")},
		{Type: msgAck, Seq: 42},
		{Type: msgEOF, Stream: stderr, Seq: 7},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := writeMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := readMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Stream != want.Stream ||
			got.Subjob != want.Subjob || got.Seq != want.Seq ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}

func TestWireRejectsBadFrames(t *testing.T) {
	if err := writeMessage(io.Discard, &message{Type: msgData, Data: make([]byte, MaxData+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	// Type 0 frame.
	raw := make([]byte, headerLen)
	if _, err := readMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad type: %v", err)
	}
	// Truncated frame.
	var buf bytes.Buffer
	writeMessage(&buf, &message{Type: msgData, Data: []byte("hello")})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := readMessage(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestStreamString(t *testing.T) {
	if stdin.String() != "stdin" || stdout.String() != "stdout" || stderr.String() != "stderr" {
		t.Fatal("stream names wrong")
	}
}
