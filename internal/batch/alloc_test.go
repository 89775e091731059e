package batch

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// TestOrderAllocs: putting a deep backlog and a few arrivals that
// belong among it in pass order allocates nothing once the queue's
// merge scratch has grown to the arrivals.
func TestOrderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	q := NewQueue(sim, "order", 1, nil)
	for i := 0; i < 260; i++ {
		if _, err := q.Submit(Request{ID: fmt.Sprint(i), Nodes: 1, Priority: i % 3, RunCB: func(*ExecCtx, func()) {}}); err != nil {
			t.Fatal(err)
		}
	}
	backlog := append([]*Handle(nil), q.pending[:256]...)
	arrivals := append([]*Handle(nil), q.pending[256:]...)
	q.pending, q.sorted = backlog, 0
	q.order()
	backlog = append(backlog[:0:0], q.pending...)
	state := make([]*Handle, 0, len(backlog)+len(arrivals))
	run := func() {
		q.pending = append(append(state[:0], backlog...), arrivals...)
		q.sorted = len(backlog)
		q.order()
	}
	run() // warm-up: the merge scratch
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("ordering 4 arrivals into a backlog of 256: %v allocations, want 0", got)
	}
}
