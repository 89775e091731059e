package console

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
)

// AgentConfig configures a Console Agent.
type AgentConfig struct {
	// Subjob is this agent's subjob index (0 for sequential jobs; one
	// agent per subjob for MPICH-G2).
	Subjob uint16
	// Mode selects fast or reliable streaming.
	Mode jdl.StreamingMode
	// Dial produces a ready-to-use connection to the Console Shadow
	// (typically already GSI-wrapped).
	Dial func() (net.Conn, error)
	// SpillDir is where the reliable mode write-ahead file lives
	// (default: os.TempDir()).
	SpillDir string
	// FlushInterval is the output buffer timeout (default 100 ms).
	FlushInterval time.Duration
	// RetryInterval and MaxRetries tune the reliable reconnection
	// loop.
	RetryInterval time.Duration
	MaxRetries    int
	// DiskCost is a modeled per-record spill latency (experiments
	// only; zero charges real disk I/O).
	DiskCost time.Duration
}

// Agent is the Console Agent (CA) of Section 4: it traps the
// application's standard streams, forwards stdout/stderr to the shadow
// through an output buffer, and feeds stdin arriving from the shadow
// into the application. If the link fails permanently the agent kills
// the application, as the paper specifies for exhausted retries.
type Agent struct {
	cfg  AgentConfig
	proc interpose.Process
	link *link

	pumps sync.WaitGroup
	// aux counts the auxiliary pumps that have not sent their EOF yet;
	// stdout and stderr send theirs only after it drains (see pump).
	aux     sync.WaitGroup
	waitErr error
	done    chan struct{}

	mu       sync.Mutex
	linkErr  error
	stdinEOF bool
}

// StartAgent interposes proc and begins streaming.
func StartAgent(cfg AgentConfig, proc interpose.Process) (*Agent, error) {
	a := &Agent{cfg: cfg, proc: proc, done: make(chan struct{})}

	spillDir := cfg.SpillDir
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	lcfg := linkConfig{
		Mode:          cfg.Mode,
		Subjob:        cfg.Subjob,
		RetryInterval: cfg.RetryInterval,
		MaxRetries:    cfg.MaxRetries,
		DiskCost:      cfg.DiskCost,
		SpillPath:     filepath.Join(spillDir, fmt.Sprintf("ca-spill-%d-%d.log", os.Getpid(), cfg.Subjob)),
	}
	link, err := newDialLink(lcfg, cfg.Dial, a.receive, a.linkFailed)
	if err != nil {
		return nil, err
	}
	a.link = link
	link.start()

	outBuf := newFlushBuffer(outputBufferSize, cfg.FlushInterval, func(b []byte) { link.send(stdout, b, false) })
	errBuf := newFlushBuffer(outputBufferSize, cfg.FlushInterval, func(b []byte) { link.send(stderr, b, false) })

	// Auxiliary output channels ("transparent streaming of other IO
	// traffic"): each gets its own buffer and stream id.
	var auxReaders []io.Reader
	if ap, ok := proc.(interpose.AuxProcess); ok {
		auxReaders = ap.Aux()
	}
	auxBufs := make([]*flushBuffer, len(auxReaders))
	for i := range auxReaders {
		stream := aux(i)
		auxBufs[i] = newFlushBuffer(outputBufferSize, cfg.FlushInterval, func(b []byte) { link.send(stream, b, false) })
	}

	a.pumps.Add(2 + len(auxReaders))
	a.aux.Add(len(auxReaders))
	go func() {
		// Hold the pumps until the first connection (or permanent
		// failure): the real CA opens its RPC channel to the shadow
		// before the application's output starts flowing, so fast mode
		// only loses data during genuine outages. The application may
		// block on a full stdio pipe meanwhile, exactly as under the
		// paper's interposition library.
		link.waitConnected()
		go a.pump(proc.Stdout(), outBuf, stdout)
		go a.pump(proc.Stderr(), errBuf, stderr)
		for i, r := range auxReaders {
			go a.pump(r, auxBufs[i], aux(i))
		}
	}()

	go a.run()
	return a, nil
}

// pump copies one application output stream into its flush buffer and
// signals EOF downstream when the stream ends. The shadow completes on
// the stdout and stderr EOFs alone, so those two wait until every
// auxiliary stream has flushed and sent its own: the link is ordered,
// so the shadow then holds every channel's data when it completes.
func (a *Agent) pump(r io.Reader, buf *flushBuffer, stream stream) {
	defer a.pumps.Done()
	chunk := make([]byte, 32<<10)
	for {
		n, err := r.Read(chunk)
		if n > 0 {
			buf.Write(chunk[:n])
		}
		if err != nil {
			buf.close()
			if stream.isAux() {
				defer a.aux.Done()
			} else {
				a.aux.Wait()
			}
			a.link.send(stream, nil, true)
			return
		}
	}
}

// receive handles stdin data arriving from the shadow.
func (a *Agent) receive(stream stream, data []byte, eof bool) {
	if stream != stdin {
		return
	}
	a.mu.Lock()
	closed := a.stdinEOF
	if eof {
		a.stdinEOF = true
	}
	a.mu.Unlock()
	if closed {
		return
	}
	if eof {
		a.proc.Stdin().Close()
		return
	}
	a.proc.Stdin().Write(data)
}

// linkFailed implements the paper's give-up policy: after the
// configured retries the process is killed.
func (a *Agent) linkFailed(err error) {
	a.mu.Lock()
	a.linkErr = err
	a.mu.Unlock()
	_ = a.proc.Kill()
}

// run waits for application exit, drains buffered output, and closes
// the link.
func (a *Agent) run() {
	a.waitErr = a.proc.Wait()
	a.pumps.Wait()
	a.link.waitDrained(30 * time.Second)
	a.link.Close()
	close(a.done)
}

// Wait blocks until the application has exited and all output has been
// delivered (or the link gave up). It returns the application's exit
// error; if the link failed permanently, that error is returned
// instead.
func (a *Agent) Wait() error {
	<-a.done
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.linkErr != nil {
		return a.linkErr
	}
	return a.waitErr
}

// Kill terminates the application.
func (a *Agent) Kill() error { return a.proc.Kill() }
