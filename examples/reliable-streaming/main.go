// Reliable streaming: a long-running remote application keeps
// producing output while the network between the grid site and the
// user machine suffers an outage. In reliable mode (Section 3) both
// ends spill the streams to disk, retry the connection, replay the
// unacknowledged suffix after reconnecting, and the user loses
// nothing. The same scenario in fast mode is shown for contrast: the
// lines written during the outage are gone.
//
// Run with: go run ./examples/reliable-streaming
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"crossbroker/internal/core"
	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
)

// collector gathers session output for post-mortem comparison.
type collector struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *collector) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *collector) lines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Count(c.buf.String(), "\n")
}

func main() {
	for _, mode := range []jdl.StreamingMode{jdl.ReliableStreaming, jdl.FastStreaming} {
		got := run(mode)
		if mode == jdl.ReliableStreaming && got < 20 {
			log.Fatalf("reliable mode received %d of 20 progress lines: the outage lost data", got)
		}
		fmt.Printf("%-8s mode: received %2d of 20 progress lines", mode, got)
		if mode == jdl.ReliableStreaming {
			fmt.Printf("  <- nothing lost across the outage\n")
		} else {
			fmt.Printf("  <- data written during the outage was lost\n")
		}
	}
}

func run(mode jdl.StreamingMode) int {
	spill, err := os.MkdirTemp("", "reliable-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spill)

	// The application: emits 20 progress lines, 25 ms apart — it has
	// no idea the network will fail underneath it.
	app := func(stdin io.Reader, stdout, stderr io.Writer) error {
		for i := 1; i <= 20; i++ {
			fmt.Fprintf(stdout, "progress %2d/20\n", i)
			time.Sleep(25 * time.Millisecond)
		}
		return nil
	}

	out := &collector{}
	sess, err := core.StartSession(core.SessionConfig{
		Mode:          mode,
		Profile:       netsim.CampusGrid(),
		Stdout:        out,
		Stderr:        io.Discard,
		SpillDir:      spill,
		RetryInterval: 30 * time.Millisecond,
		MaxRetries:    100,
		FlushInterval: 5 * time.Millisecond,
	}, []interpose.AppFunc{app})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Cut the network for 150 ms in the middle of the run.
	sess.Net.Outage(150*time.Millisecond, 150*time.Millisecond)

	if err := sess.Wait(30 * time.Second); err != nil {
		log.Fatalf("%s session: %v", mode, err)
	}
	return out.lines()
}
