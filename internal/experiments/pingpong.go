// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6):
//
//   - Table I  — response time of job startup per submission method
//     (TableI).
//   - Figure 6 — sequential I/O streaming overhead on the campus grid
//     (PingPongSuite with the CampusGrid profile).
//   - Figure 7 — the same over the wide-area UAB<->IFCA path
//     (PingPongSuite with the WideArea profile).
//   - Figure 8 — multiprogramming VM load overhead (Fig8).
//
// Plus the ablation studies DESIGN.md calls out (ablation.go). The
// cmd/gridbench binary and the repository's bench_test.go are thin
// wrappers over this package.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"crossbroker/internal/baseline"
	"crossbroker/internal/console"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
)

// Method identifies one interactive-channel mechanism in Figures 6-7.
type Method string

// The four mechanisms compared by the paper.
const (
	SSH      Method = "ssh"
	Glogin   Method = "glogin"
	Fast     Method = "fast"
	Reliable Method = "reliable"
)

// AllMethods lists the Figure 6/7 mechanisms in the paper's order.
func AllMethods() []Method { return []Method{SSH, Glogin, Fast, Reliable} }

// PingPongConfig parametrizes the Section 6.2 experiment.
type PingPongConfig struct {
	// Profile is the network between submission and execution machine.
	Profile netsim.Profile
	// Sizes are the per-message payload sizes (the paper sweeps 10 B
	// to 10 KB).
	Sizes []int
	// Rounds is the number of coordinated read/write sequences (the
	// paper uses 1,000).
	Rounds int
	// SpillDir holds reliable-mode spill files.
	SpillDir string
	// Seed makes jitter reproducible.
	Seed int64
}

// pingPongDiskCost is the modeled per-spill-record storage latency,
// the era calibration for the paper's worker nodes (see
// EXPERIMENTS.md).
const pingPongDiskCost = 150 * time.Microsecond

func (c *PingPongConfig) setDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{10, 100, 1000, 10000}
	}
	if c.Rounds <= 0 {
		c.Rounds = 1000
	}
	if c.SpillDir == "" {
		c.SpillDir = "."
	}
}

// PingPongResult holds one method's series per message size, in
// seconds per round trip (the Y axis of Figures 6 and 7).
type PingPongResult map[Method]map[int]*metrics.Series

// PingPongSuite runs the full Section 6.2 experiment: for each method
// and message size, Rounds coordinated write/read sequences between a
// client on the submission machine and an echo server on the
// execution machine, over the configured network profile. Unlike the
// virtual-time experiments this suite measures real elapsed time, so
// the cells run one at a time: concurrent cells would perturb each
// other's numbers.
func PingPongSuite(cfg PingPongConfig) (PingPongResult, error) {
	cfg.setDefaults()
	out := make(PingPongResult)
	for _, m := range AllMethods() {
		out[m] = make(map[int]*metrics.Series)
		for _, size := range cfg.Sizes {
			s, err := pingPongOne(m, size, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%dB: %w", m, size, err)
			}
			out[m][size] = s
		}
	}
	return out, nil
}

// PingPongOne measures a single (method, size) cell; benchmarks use
// it to time one mechanism in isolation.
func PingPongOne(m Method, size int, cfg PingPongConfig) (*metrics.Series, error) {
	cfg.setDefaults()
	return pingPongOne(m, size, cfg)
}

// pingPongOne measures one (method, size) cell.
func pingPongOne(m Method, size int, cfg PingPongConfig) (*metrics.Series, error) {
	nw := netsim.New(cfg.Profile, cfg.Seed)
	series := metrics.NewSeries(fmt.Sprintf("%s-%dB", m, size))

	var client io.ReadWriter
	var cleanup func()
	switch m {
	case SSH, Glogin:
		var ch *baseline.Channel
		var err error
		if m == SSH {
			ch, err = baseline.NewSSH(nw, "session")
		} else {
			ch, err = baseline.NewGlogin(nw, "session")
		}
		if err != nil {
			return nil, err
		}
		go echoLoop(ch.Server())
		client = ch.Client()
		cleanup = func() { ch.Close() }
	case Fast, Reliable:
		mode := jdl.FastStreaming
		if m == Reliable {
			mode = jdl.ReliableStreaming
		}
		cc, err := newConsoleChannel(nw, mode, cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		client = cc
		cleanup = cc.close
	default:
		return nil, fmt.Errorf("unknown method %q", m)
	}
	defer cleanup()

	msg := makeMessage(size)
	buf := make([]byte, size)
	for i := 0; i < cfg.Rounds; i++ {
		start := time.Now()
		if _, err := client.Write(msg); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(client, buf); err != nil {
			return nil, err
		}
		series.AddDuration(time.Since(start))
	}
	return series, nil
}

// makeMessage builds a size-byte payload with exactly one newline, at
// the end, so line-based forwarding and flushing treat it as one unit.
func makeMessage(size int) []byte {
	if size < 1 {
		size = 1
	}
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	msg[size-1] = '\n'
	return msg
}

// echoLoop answers each newline-terminated message with itself.
func echoLoop(rw io.ReadWriter) {
	r := bufio.NewReader(rw)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			if _, werr := rw.Write(line); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// RenderPingPong summarizes a suite result like Figures 6/7: one row
// per (method, size) with mean, median, p95 and max round-trip times
// in seconds. The paper plots the raw per-sequence series; Series
// values remain available for plotting.
func RenderPingPong(title string, res PingPongResult, sizes []int) string {
	t := metrics.NewTable("Method", "Size (B)", "Mean (s)", "P50 (s)", "P95 (s)", "Max (s)")
	for _, m := range AllMethods() {
		bySize, ok := res[m]
		if !ok {
			continue
		}
		for _, size := range sizes {
			s, ok := bySize[size]
			if !ok {
				continue
			}
			sum := s.Summarize()
			t.AddRow(string(m), fmt.Sprintf("%d", size),
				fmt.Sprintf("%.6f", sum.Mean), fmt.Sprintf("%.6f", sum.P50),
				fmt.Sprintf("%.6f", sum.P95), fmt.Sprintf("%.6f", sum.Max))
		}
	}
	return title + "\n" + t.String()
}

// consoleChannel runs the full Grid Console stack — interposed echo
// application, Console Agent on the execution machine, Console Shadow
// on the submission machine — and exposes the user-side stdin/stdout
// as an io.ReadWriter for the ping-pong client.
type consoleChannel struct {
	shadow *console.Shadow
	agent  *console.Agent

	stdinW *io.PipeWriter // user keystrokes into the shadow
	outR   *io.PipeReader // merged stdout from the shadow
	lis    *netsim.Listener
}

func newConsoleChannel(nw *netsim.Net, mode jdl.StreamingMode, spillDir string) (*consoleChannel, error) {
	lis, err := nw.Listen("shadow")
	if err != nil {
		return nil, err
	}
	stdinR, stdinW := io.Pipe()
	outR, outW := io.Pipe()

	shadow, err := console.StartShadow(console.ShadowConfig{
		Mode:          mode,
		Subjobs:       1,
		Accept:        func() (net.Conn, error) { return lis.Accept() },
		Stdout:        outW,
		Stderr:        io.Discard,
		Stdin:         stdinR,
		SpillDir:      spillDir,
		DiskCost:      pingPongDiskCost,
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 50 * time.Millisecond,
		MaxRetries:    100,
	})
	if err != nil {
		lis.Close()
		return nil, err
	}

	proc, err := interpose.Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		echoLoop(struct {
			io.Reader
			io.Writer
		}{stdin, stdout})
		return nil
	})
	if err != nil {
		shadow.Close()
		lis.Close()
		return nil, err
	}
	agent, err := console.StartAgent(console.AgentConfig{
		Mode:          mode,
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      spillDir,
		DiskCost:      pingPongDiskCost,
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 50 * time.Millisecond,
		MaxRetries:    100,
	}, proc)
	if err != nil {
		_ = proc.Kill()
		shadow.Close()
		lis.Close()
		return nil, err
	}
	// Wait for the agent's channel before declaring the session
	// interactive; otherwise the first fast-mode keystrokes would be
	// dropped on the floor (see core.StartSession).
	deadline := time.Now().Add(10 * time.Second)
	for shadow.Attached() == 0 {
		if time.Now().After(deadline) {
			_ = agent.Kill()
			shadow.Close()
			lis.Close()
			return nil, fmt.Errorf("experiments: console agent did not connect")
		}
		time.Sleep(time.Millisecond)
	}
	return &consoleChannel{shadow: shadow, agent: agent, stdinW: stdinW, outR: outR, lis: lis}, nil
}

// Write sends user input; forwarding happens on the trailing newline.
func (c *consoleChannel) Write(p []byte) (int, error) { return c.stdinW.Write(p) }

// Read returns application output that reached the user's screen.
func (c *consoleChannel) Read(p []byte) (int, error) { return c.outR.Read(p) }

func (c *consoleChannel) close() {
	c.stdinW.Close()
	_ = c.agent.Kill()
	// Let the agent drain to the shadow and close its link before the
	// shadow goes: closed first, it would leave the agent redialling it
	// for seconds after the cell returned. The exit error of a killed
	// echo loop says nothing.
	_ = c.agent.Wait()
	c.shadow.Close()
	c.lis.Close()
	c.outR.Close()
}
