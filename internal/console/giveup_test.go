package console

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// TestShadowGiveUpReportsKill covers the paper's give-up policy from
// the shadow's side: a permanent outage exhausts the agent's retry
// budget (killing the application), the shadow's watchdog waits out
// the same budget, reports the failure through OnLinkFail, and
// releases the subjob's streams so Done still fires.
func TestShadowGiveUpReportsKill(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 42)
	l, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	failed := make(chan error, 1)
	shadow, err := StartShadow(ShadowConfig{
		Mode:          jdl.ReliableStreaming,
		Subjobs:       1,
		Accept:        func() (net.Conn, error) { return l.Accept() },
		Stdout:        io.Discard,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		RetryInterval: 10 * time.Millisecond,
		MaxRetries:    5,
		OnLinkFail: func(sub uint16, err error) {
			select {
			case failed <- err:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shadow.Close() })

	proc, err := interpose.Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		io.Copy(io.Discard, stdin) // blocks until the agent's kill
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := StartAgent(AgentConfig{
		Mode:          jdl.ReliableStreaming,
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      t.TempDir(),
		RetryInterval: 10 * time.Millisecond,
		MaxRetries:    5,
	}, proc)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for shadow.Attached() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never connected")
		}
		time.Sleep(time.Millisecond)
	}
	if shadow.linkFailure() != nil {
		t.Fatalf("premature link failure: %v", shadow.linkFailure())
	}

	nw.SetDown(true) // permanent outage

	select {
	case err := <-failed:
		if !errors.Is(err, ErrLinkFailed) {
			t.Fatalf("OnLinkFail err = %v, want ErrLinkFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnLinkFail never called")
	}
	if !errors.Is(shadow.linkFailure(), ErrLinkFailed) {
		t.Fatalf("linkFailure = %v, want ErrLinkFailed", shadow.linkFailure())
	}
	// The failed subjob's streams are released: the session completes
	// instead of hanging on output that can never arrive.
	if !shadow.Wait(5 * time.Second) {
		t.Fatal("shadow did not complete after give-up")
	}
	// The agent side enforced the kill policy on the application.
	if err := agent.Wait(); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("agent.Wait = %v, want ErrLinkFailed", err)
	}
}

// TestShadowWatchdogTolerantOfReconnect: a short outage well inside
// the retry budget must not trip the give-up watchdog.
func TestShadowWatchdogTolerantOfReconnect(t *testing.T) {
	nw := netsim.New(netsim.Loopback(), 42)
	l, err := nw.Listen("shadow")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	shadow, err := StartShadow(ShadowConfig{
		Mode:          jdl.ReliableStreaming,
		Subjobs:       1,
		Accept:        func() (net.Conn, error) { return l.Accept() },
		Stdout:        io.Discard,
		Stderr:        io.Discard,
		SpillDir:      t.TempDir(),
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    100,
		OnLinkFail: func(sub uint16, err error) {
			t.Errorf("watchdog tripped during a recoverable outage: %v", err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shadow.Close() })

	done := make(chan struct{})
	proc, err := interpose.Func(func(stdin io.Reader, stdout, stderr io.Writer) error {
		<-done
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := StartAgent(AgentConfig{
		Mode:          jdl.ReliableStreaming,
		Dial:          func() (net.Conn, error) { return nw.Dial("shadow") },
		SpillDir:      t.TempDir(),
		RetryInterval: 20 * time.Millisecond,
		MaxRetries:    100,
	}, proc)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for shadow.Attached() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never connected")
		}
		time.Sleep(time.Millisecond)
	}

	nw.SetDown(true)
	time.Sleep(60 * time.Millisecond)
	nw.SetDown(false)

	// Wait for the reconnect, then finish the app cleanly.
	deadline = time.Now().Add(5 * time.Second)
	for !agent.link.connected() {
		if time.Now().After(deadline) {
			t.Fatal("agent never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	if !shadow.Wait(10 * time.Second) {
		t.Fatal("session did not complete after outage heal")
	}
	if err := agent.Wait(); err != nil {
		t.Fatalf("agent.Wait = %v", err)
	}
	if shadow.linkFailure() != nil {
		t.Fatalf("linkFailure = %v after clean completion", shadow.linkFailure())
	}
}
