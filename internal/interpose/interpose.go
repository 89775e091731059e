// Package interpose provides the split-execution attachment point of
// the Grid Console: it runs an *unmodified* application while giving
// the Console Agent ownership of the application's standard input,
// output and error streams.
//
// The paper implements this with an LD_PRELOAD-style shared library
// that traps read/write calls on file descriptors 0/1/2 ([19],
// Condor-style interposition). A Go runtime cannot inject itself under
// libc, so this package realizes the same observable contract — "the
// job performs ordinary reads and writes on its standard descriptors
// and the agent sees every byte, without recompilation" — by binding
// the descriptors to pipes owned by the agent process:
//
//   - Command runs a real external binary via os/exec with its stdio
//     bound to agent-held pipes (the production path of cmd/gcagent).
//   - Func runs a Go function as the "application" with pipe-backed
//     stdio; simulations and tests use it as a stand-in application.
//
// Either way the application is unaware of the Grid Console, exactly
// as with the original interposition agents.
package interpose

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"sync"
)

// Process is an application under interposition. The Console Agent
// reads the application's output from Stdout/Stderr and feeds its
// input through Stdin.
type Process interface {
	// Stdin is the write end of the application's standard input.
	// Closing it delivers EOF to the application.
	Stdin() io.WriteCloser
	// Stdout is the read end of the application's standard output.
	Stdout() io.Reader
	// Stderr is the read end of the application's standard error.
	Stderr() io.Reader
	// Wait blocks until the application exits and returns its error,
	// if any. Wait must be called exactly once.
	Wait() error
	// Kill terminates the application.
	Kill() error
}

// AuxProcess is implemented by processes exposing auxiliary output
// channels beyond the standard streams — the paper's "other IO
// traffic". The Console Agent forwards each channel to the shadow
// alongside stdout/stderr.
type AuxProcess interface {
	Process
	// Aux returns the read ends of the process's auxiliary channels,
	// in channel order.
	Aux() []io.Reader
}

// Cmd is a Process backed by a real operating-system process.
type Cmd struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.Reader
	stderr io.Reader
	aux    []io.Reader
}

// CommandAux starts the named program with naux additional interposed
// output channels on file descriptors 3, 4, ... (the Unix convention
// for inherited pipes); the program writes to them as ordinary fds,
// unaware of the forwarding.
//
// The pipes are managed manually rather than via exec.Cmd's
// StdoutPipe/StderrPipe: Wait closes those as soon as the process
// exits, racing any reader still draining buffered output — here the
// Console Agent's pumps, which must see every byte up to a clean EOF.
func CommandAux(naux int, name string, args ...string) (*Cmd, error) {
	c := exec.Command(name, args...)
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	stderrR, stderrW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.Stdin = stdinR
	c.Stdout = stdoutW
	c.Stderr = stderrW
	p := &Cmd{cmd: c, stdin: stdinW, stdout: stdoutR, stderr: stderrR}
	// childEnds are the descriptors inherited by the child; the parent
	// closes its copies after Start so readers see EOF exactly when
	// the child exits.
	childEnds := []*os.File{stdinR, stdoutW, stderrW}
	for i := 0; i < naux; i++ {
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		c.ExtraFiles = append(c.ExtraFiles, w) // becomes fd 3+i in the child
		childEnds = append(childEnds, w)
		p.aux = append(p.aux, r)
	}
	if err := c.Start(); err != nil {
		for _, f := range childEnds {
			f.Close()
		}
		return nil, err
	}
	for _, f := range childEnds {
		f.Close()
	}
	return p, nil
}

// Aux implements AuxProcess.
func (c *Cmd) Aux() []io.Reader { return c.aux }

// Stdin implements Process.
func (c *Cmd) Stdin() io.WriteCloser { return c.stdin }

// Stdout implements Process.
func (c *Cmd) Stdout() io.Reader { return c.stdout }

// Stderr implements Process.
func (c *Cmd) Stderr() io.Reader { return c.stderr }

// Wait implements Process.
func (c *Cmd) Wait() error { return c.cmd.Wait() }

// Kill implements Process.
func (c *Cmd) Kill() error {
	if c.cmd.Process == nil {
		return errors.New("interpose: process not started")
	}
	return c.cmd.Process.Kill()
}

// FuncProcess is a Process backed by a Go function, used as a
// simulated application.
type FuncProcess struct {
	stdinR, stdoutR, stderrR *os.File
	stdinW, stdoutW, stderrW *os.File
	auxR, auxW               []*os.File

	done chan struct{}
	err  error

	killOnce sync.Once
	killed   chan struct{}
}

// AppFunc is a simulated application body. It must treat its arguments
// exactly as a process treats fds 0/1/2 and return when stdin reaches
// EOF or its work is done.
type AppFunc func(stdin io.Reader, stdout, stderr io.Writer) error

// AuxAppFunc is an application body with auxiliary output channels
// (the analogue of writing to inherited fds 3, 4, ...).
type AuxAppFunc func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error

// Func starts fn as an interposed application over real OS pipes (so
// the byte-stream semantics, including partial reads and EOF, match a
// real process).
func Func(fn AppFunc) (*FuncProcess, error) {
	return FuncAux(0, func(stdin io.Reader, stdout, stderr io.Writer, _ []io.Writer) error {
		return fn(stdin, stdout, stderr)
	})
}

// FuncAux starts fn with naux auxiliary output channels.
func FuncAux(naux int, fn AuxAppFunc) (*FuncProcess, error) {
	p := &FuncProcess{done: make(chan struct{}), killed: make(chan struct{})}
	var err error
	if p.stdinR, p.stdinW, err = os.Pipe(); err != nil {
		return nil, err
	}
	if p.stdoutR, p.stdoutW, err = os.Pipe(); err != nil {
		return nil, err
	}
	if p.stderrR, p.stderrW, err = os.Pipe(); err != nil {
		return nil, err
	}
	for i := 0; i < naux; i++ {
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		p.auxR = append(p.auxR, r)
		p.auxW = append(p.auxW, w)
	}
	go func() {
		defer close(p.done)
		defer p.stdoutW.Close()
		defer p.stderrW.Close()
		defer func() {
			for _, w := range p.auxW {
				w.Close()
			}
		}()
		aux := make([]io.Writer, len(p.auxW))
		for i, w := range p.auxW {
			aux[i] = w
		}
		p.err = fn(p.stdinR, p.stdoutW, p.stderrW, aux)
	}()
	return p, nil
}

// Aux implements AuxProcess.
func (p *FuncProcess) Aux() []io.Reader {
	out := make([]io.Reader, len(p.auxR))
	for i, r := range p.auxR {
		out[i] = r
	}
	return out
}

// ErrKilled is returned by Wait when the application was killed.
var ErrKilled = errors.New("interpose: killed")

// Stdin implements Process.
func (p *FuncProcess) Stdin() io.WriteCloser { return p.stdinW }

// Stdout implements Process.
func (p *FuncProcess) Stdout() io.Reader { return p.stdoutR }

// Stderr implements Process.
func (p *FuncProcess) Stderr() io.Reader { return p.stderrR }

// Wait implements Process.
func (p *FuncProcess) Wait() error {
	select {
	case <-p.done:
		// A kill may race with a natural exit; report the kill, as a
		// real wait(2) reports the signal.
		select {
		case <-p.killed:
			return ErrKilled
		default:
		}
		return p.err
	case <-p.killed:
		return ErrKilled
	}
}

// Kill implements Process: it closes the application's pipes, which
// surfaces as EOF/EPIPE inside the application, and marks the process
// killed.
func (p *FuncProcess) Kill() error {
	p.killOnce.Do(func() {
		close(p.killed) // before the pipes, so Wait observes the kill
		p.stdinR.Close()
		p.stdinW.Close()
		p.stdoutW.Close()
		p.stderrW.Close()
		for _, w := range p.auxW {
			w.Close()
		}
	})
	return nil
}

var (
	_ Process    = (*Cmd)(nil)
	_ Process    = (*FuncProcess)(nil)
	_ AuxProcess = (*Cmd)(nil)
	_ AuxProcess = (*FuncProcess)(nil)
)
