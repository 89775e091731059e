package interpose

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func TestFuncEcho(t *testing.T) {
	p, err := Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			fmt.Fprintf(stdout, "echo: %s\n", sc.Text())
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		io.WriteString(p.Stdin(), "hello\nworld\n")
		p.Stdin().Close()
	}()
	out, err := io.ReadAll(p.Stdout())
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo: hello\necho: world\n" {
		t.Fatalf("out = %q", out)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFuncStderrSeparate(t *testing.T) {
	p, _ := Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		fmt.Fprint(stdout, "out")
		fmt.Fprint(stderr, "err")
		return nil
	})
	p.Stdin().Close()
	out, _ := io.ReadAll(p.Stdout())
	errOut, _ := io.ReadAll(p.Stderr())
	if string(out) != "out" || string(errOut) != "err" {
		t.Fatalf("out=%q err=%q", out, errOut)
	}
	p.Wait()
}

func TestFuncReturnsAppError(t *testing.T) {
	want := errors.New("app failed")
	p, _ := Func(func(stdin io.Reader, stdout, stderr io.Writer) error { return want })
	p.Stdin().Close()
	if err := p.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait = %v", err)
	}
}

func TestFuncKill(t *testing.T) {
	p, _ := Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		// Block forever on stdin; Kill must unblock us via pipe close.
		io.ReadAll(stdin)
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	time.Sleep(10 * time.Millisecond)
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("Wait after Kill = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after Kill")
	}
	if err := p.Kill(); err != nil {
		t.Fatalf("second Kill: %v", err)
	}
}

func TestFuncEOFOnStdinClose(t *testing.T) {
	sawEOF := make(chan bool, 1)
	p, _ := Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		_, err := io.ReadAll(stdin)
		sawEOF <- err == nil
		return nil
	})
	io.WriteString(p.Stdin(), "tail")
	p.Stdin().Close()
	if !<-sawEOF {
		t.Fatal("application did not see clean EOF")
	}
	p.Wait()
}

func TestCommandRealProcess(t *testing.T) {
	p, err := CommandAux(0, "cat")
	if err != nil {
		t.Skipf("cat unavailable: %v", err)
	}
	if p.cmd.Process == nil || p.cmd.Process.Pid == 0 {
		t.Fatal("no process id for started process")
	}
	go func() {
		io.WriteString(p.Stdin(), "through a real process\n")
		p.Stdin().Close()
	}()
	out, err := io.ReadAll(p.Stdout())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "through a real process") {
		t.Fatalf("out = %q", out)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandKill(t *testing.T) {
	p, err := CommandAux(0, "sleep", "100")
	if err != nil {
		t.Skipf("sleep unavailable: %v", err)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("Wait returned nil for killed process")
	}
}

func TestCommandMissingBinary(t *testing.T) {
	if _, err := CommandAux(0, "/definitely/not/a/binary"); err == nil {
		t.Fatal("starting a missing binary succeeded")
	}
}

func TestCommandAuxRealProcess(t *testing.T) {
	// The child writes to inherited fd 3 — an ordinary write from its
	// point of view, transparently captured by the agent side.
	p, err := CommandAux(1, "sh", "-c", "echo to-stdout; echo to-aux >&3")
	if err != nil {
		t.Skipf("sh unavailable: %v", err)
	}
	p.Stdin().Close()
	out, _ := io.ReadAll(p.Stdout())
	aux, _ := io.ReadAll(p.Aux()[0])
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(out) != "to-stdout\n" {
		t.Fatalf("stdout = %q", out)
	}
	if string(aux) != "to-aux\n" {
		t.Fatalf("aux = %q", aux)
	}
}

func TestFuncAuxChannels(t *testing.T) {
	p, err := FuncAux(2, func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		fmt.Fprint(aux[0], "zero")
		fmt.Fprint(aux[1], "one")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Stdin().Close()
	a0, _ := io.ReadAll(p.Aux()[0])
	a1, _ := io.ReadAll(p.Aux()[1])
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(a0) != "zero" || string(a1) != "one" {
		t.Fatalf("aux = %q, %q", a0, a1)
	}
}

func TestFuncAuxKillUnblocksAuxReaders(t *testing.T) {
	p, _ := FuncAux(1, func(stdin io.Reader, stdout, stderr io.Writer, aux []io.Writer) error {
		io.ReadAll(stdin) // block until killed
		return nil
	})
	done := make(chan struct{})
	go func() {
		io.ReadAll(p.Aux()[0])
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Kill()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("aux reader still blocked after Kill")
	}
}
