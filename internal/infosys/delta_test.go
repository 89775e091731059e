package infosys

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// replayMirror is a minimal subscriber: it folds SubUpdates into a
// record map and counts how many times each epoch was applied, which is
// what the exactly-once tests assert on.
type replayMirror struct {
	pos     map[int]uint64
	recs    map[string]SiteRecord
	applied map[uint64]int // per shard-epoch application count (1 shard)
	gaps    int
}

func newReplayMirror(shards int) *replayMirror {
	return &replayMirror{
		pos:     make(map[int]uint64, shards),
		recs:    make(map[string]SiteRecord),
		applied: make(map[uint64]int),
	}
}

func (m *replayMirror) apply(t *testing.T, u SubUpdate) {
	t.Helper()
	if u.Gap {
		m.gaps++
		for name := range m.recs {
			delete(m.recs, name)
		}
		for i := 0; i < u.Snapshot.len(); i++ {
			r := u.Snapshot.record(i)
			m.recs[r.Name] = r
		}
	} else {
		for _, d := range u.Deltas {
			if d.Epoch <= m.pos[u.Shard] {
				t.Fatalf("shard %d replayed epoch %d at position %d", u.Shard, d.Epoch, m.pos[u.Shard])
			}
			m.applied[d.Epoch]++
			if d.Kind == DeltaRemoved {
				delete(m.recs, d.Name)
			} else {
				m.recs[d.Name] = d.Rec
			}
		}
	}
	if u.ToEpoch > m.pos[u.Shard] {
		m.pos[u.Shard] = u.ToEpoch
	}
}

// checkAgainst asserts the mirror equals the registry's current state.
func (m *replayMirror) checkAgainst(t *testing.T, svc *Service) {
	t.Helper()
	want := svc.SnapshotImmediate().Records()
	if len(m.recs) != len(want) {
		t.Fatalf("mirror holds %d records, registry %d", len(m.recs), len(want))
	}
	for _, r := range want {
		got, ok := m.recs[r.Name]
		if !ok {
			t.Fatalf("mirror is missing %s", r.Name)
		}
		if got.FreeCPUs != r.FreeCPUs {
			t.Fatalf("%s: mirror FreeCPUs %d, registry %d", r.Name, got.FreeCPUs, r.FreeCPUs)
		}
	}
}

// pollAll subscribes every shard from the mirror's position and applies
// the answers.
func (m *replayMirror) pollAll(t *testing.T, svc *Service) {
	t.Helper()
	for i := 0; i < svc.ShardCount(); i++ {
		m.apply(t, svc.SubscribeImmediate(i, m.pos[i]))
	}
}

// TestSubscribeReplaysDeltas: with a deep enough log, a subscriber that
// replays deltas from epoch zero reconstructs the registry exactly —
// through adds, updates and removes, across shards.
func TestSubscribeReplaysDeltas(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 4)
	svc.SetDeltaLog(64)

	for i := 0; i < 12; i++ {
		mustPublish(t, svc, rec(fmt.Sprintf("s%02d", i), i))
	}
	mustPublish(t, svc, rec("s03", 99)) // update
	svc.Remove("s05")
	svc.Remove("nosuch") // ineffective: must not consume an epoch

	m := newReplayMirror(4)
	m.pollAll(t, svc)
	if m.gaps != 0 {
		t.Fatalf("replay fell back to %d re-pins with a deep log", m.gaps)
	}
	m.checkAgainst(t, svc)

	// Positions add up to the global epoch: 13 publishes + 1 remove.
	var sum uint64
	for _, p := range m.pos {
		sum += p
	}
	if sum != svc.Epoch() || sum != 14 {
		t.Fatalf("position sum %d, service epoch %d, want 14", sum, svc.Epoch())
	}

	// A caught-up poll is a no-op.
	for i := 0; i < svc.ShardCount(); i++ {
		u := svc.SubscribeImmediate(i, m.pos[i])
		if u.Gap || len(u.Deltas) != 0 || u.ToEpoch != m.pos[i] {
			t.Fatalf("caught-up poll of shard %d: gap=%v deltas=%d to=%d", i, u.Gap, len(u.Deltas), u.ToEpoch)
		}
	}
}

// TestSubscribeGapRepins: a subscriber that fell behind a compacted log
// gets a snapshot re-pin that lands it on the registry's exact state.
func TestSubscribeGapRepins(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 1)
	svc.SetDeltaLog(2)

	for i := 0; i < 10; i++ {
		mustPublish(t, svc, rec(fmt.Sprintf("s%02d", i), i))
	}
	u := svc.SubscribeImmediate(0, 0)
	if !u.Gap || u.Snapshot == nil {
		t.Fatalf("expected gap fallback, got gap=%v deltas=%d", u.Gap, len(u.Deltas))
	}
	if u.ToEpoch != u.Snapshot.Epoch() {
		t.Fatalf("gap ToEpoch %d, snapshot epoch %d", u.ToEpoch, u.Snapshot.Epoch())
	}
	m := newReplayMirror(1)
	m.apply(t, u)
	m.checkAgainst(t, svc)
}

// TestGapFallbackExactlyOnce is the regression test for double-counting
// the first post-fallback epoch: after a compaction-forced re-pin the
// subscriber's position must be the snapshot's own epoch, so the next
// poll returns the first new delta exactly once — and never a delta the
// snapshot already contained.
func TestGapFallbackExactlyOnce(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 1)
	svc.SetDeltaLog(1) // compacts after every mutation: the slowest possible subscriber

	mustPublish(t, svc, rec("a", 1)) // epoch 1
	mustPublish(t, svc, rec("b", 2)) // epoch 2
	mustPublish(t, svc, rec("c", 3)) // epoch 3

	m := newReplayMirror(1)
	m.pollAll(t, svc)
	if m.gaps != 1 || m.pos[0] != 3 {
		t.Fatalf("after first poll: gaps=%d pos=%d, want 1 re-pin at epoch 3", m.gaps, m.pos[0])
	}
	m.checkAgainst(t, svc)

	// The first post-fallback mutation (epoch 4) must arrive as exactly
	// one delta — not be skipped, not be replayed twice.
	mustPublish(t, svc, rec("c", 30)) // epoch 4: update
	m.pollAll(t, svc)
	if m.gaps != 1 {
		t.Fatalf("post-fallback poll re-pinned again (gaps=%d), log covers epoch 4", m.gaps)
	}
	if got := m.applied[4]; got != 1 {
		t.Fatalf("epoch 4 applied %d times, want exactly once", got)
	}
	m.checkAgainst(t, svc)

	// Fall behind again across two mutations: depth 1 covers only the
	// last, so the poll must re-pin rather than replay a partial range.
	mustPublish(t, svc, rec("d", 5))
	svc.Remove("a")
	m.pollAll(t, svc)
	if m.gaps != 2 || m.pos[0] != 6 {
		t.Fatalf("second fall-behind: gaps=%d pos=%d, want 2 re-pins at epoch 6", m.gaps, m.pos[0])
	}
	m.checkAgainst(t, svc)
	for ep, n := range m.applied {
		if n != 1 {
			t.Fatalf("epoch %d applied %d times", ep, n)
		}
	}
}

// TestSubscribeBoundedDuringPartition: while the service is partitioned
// a subscriber can catch up to the cut point but sees nothing published
// behind the partition; after the heal one poll catches it up fully.
func TestSubscribeBoundedDuringPartition(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 1)
	svc.SetDeltaLog(16)

	mustPublish(t, svc, rec("a", 1)) // epoch 1
	mustPublish(t, svc, rec("b", 2)) // epoch 2
	svc.SetPartitioned(true)
	mustPublish(t, svc, rec("c", 3)) // epoch 3, behind the partition

	u := svc.SubscribeImmediate(0, 0)
	if u.Gap || len(u.Deltas) != 2 || u.ToEpoch != 2 {
		t.Fatalf("partitioned poll: gap=%v deltas=%d to=%d, want 2 deltas up to the cut", u.Gap, len(u.Deltas), u.ToEpoch)
	}
	// Held at the cut point: polling again yields nothing new.
	u = svc.SubscribeImmediate(0, 2)
	if u.Gap || len(u.Deltas) != 0 || u.ToEpoch != 2 {
		t.Fatalf("held poll: gap=%v deltas=%d to=%d", u.Gap, len(u.Deltas), u.ToEpoch)
	}

	svc.SetPartitioned(false)
	u = svc.SubscribeImmediate(0, 2)
	if u.Gap || len(u.Deltas) != 1 || u.Deltas[0].Name != "c" || u.ToEpoch != 3 {
		t.Fatalf("post-heal poll: gap=%v deltas=%d to=%d", u.Gap, len(u.Deltas), u.ToEpoch)
	}
}

// TestSubscribeStopsAtCut: on a sharded service every shard's poll
// stops at that shard's cut-time epoch and carries the very snapshot a
// discovery cursor pages while cut; the heal releases the rest.
func TestSubscribeStopsAtCut(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 4)
	svc.SetDeltaLog(16)
	for i := 0; i < 8; i++ {
		mustPublish(t, svc, rec(fmt.Sprintf("s%02d", i), i))
	}
	cutAt := make([]uint64, svc.ShardCount())
	for i := range cutAt {
		cutAt[i] = svc.SubscribeImmediate(i, 0).ToEpoch
	}
	svc.SetPartitioned(true)
	for i := 0; i < 8; i++ {
		mustPublish(t, svc, rec(fmt.Sprintf("s%02d", i), i+1))
	}
	pinned := make(map[int]*Snapshot)
	for cur := svc.DiscoverImmediate(1); ; {
		p, ok := cur.Next()
		if !ok {
			break
		}
		pinned[p.Shard()] = p.Snapshot()
	}
	for i, want := range cutAt {
		u := svc.SubscribeImmediate(i, 0)
		if u.ToEpoch != want || uint64(len(u.Deltas)) != want {
			t.Fatalf("shard %d: cut poll to=%d deltas=%d, want both %d", i, u.ToEpoch, len(u.Deltas), want)
		}
		if p := pinned[i]; p != nil && p != u.Snapshot {
			t.Fatalf("shard %d: the poll and the cursor serve different snapshots while cut", i)
		}
	}
	svc.SetPartitioned(false)
	for i, at := range cutAt {
		if u := svc.SubscribeImmediate(i, at); u.ToEpoch != 2*at || uint64(len(u.Deltas)) != at {
			t.Fatalf("shard %d: healed poll from %d to=%d deltas=%d, want to=%d", i, at, u.ToEpoch, len(u.Deltas), 2*at)
		}
	}
}

// TestSubscribeCostModel: without a shard link the classic flat query
// latency is charged; with one, a delta answer pays RTT plus its
// serialized deltas and a re-pin pays RTT plus the whole shard.
func TestSubscribeCostModel(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, 250*time.Millisecond, 1)
	svc.SetDeltaLog(2)
	for i := 0; i < 6; i++ {
		mustPublish(t, svc, rec(fmt.Sprintf("s%02d", i), i))
	}

	if u := svc.SubscribeImmediate(0, 4); u.Cost != 250*time.Millisecond {
		t.Fatalf("link-less cost = %v, want the flat query latency", u.Cost)
	}

	link := netsim.WideArea()
	svc.SetShardLink(link)
	u := svc.SubscribeImmediate(0, 4) // epochs 5,6 are in the depth-2 log
	if u.Gap || len(u.Deltas) != 2 {
		t.Fatalf("expected 2-delta answer, got gap=%v deltas=%d", u.Gap, len(u.Deltas))
	}
	if want := link.RTT() + link.TransferTime(2*deltaWireBytes); u.Cost != want {
		t.Fatalf("delta cost = %v, want %v", u.Cost, want)
	}
	u = svc.SubscribeImmediate(0, 0)
	if !u.Gap {
		t.Fatal("expected a re-pin")
	}
	if want := link.RTT() + link.TransferTime(u.Snapshot.len()*recordWireBytes); u.Cost != want {
		t.Fatalf("re-pin cost = %v, want %v", u.Cost, want)
	}
}

// TestPublishEmitsDeltaTrace: with a tracer and delta logs wired,
// every effective mutation emits a DeltaPublished event carrying the
// global epoch and the delta kind.
func TestPublishEmitsDeltaTrace(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, time.Millisecond, 2)
	svc.SetDeltaLog(8)
	tr := trace.New(sim.Now)
	svc.SetTracer(tr)

	mustPublish(t, svc, rec("a", 1))
	mustPublish(t, svc, rec("a", 2))
	svc.Remove("a")
	svc.Remove("a") // ineffective: no event

	events := tr.Snapshot("t").Events
	var got []string
	for _, e := range events {
		if e.Kind == trace.DeltaPublished {
			got = append(got, fmt.Sprintf("%s@%d", e.Detail, e.Epoch))
		}
	}
	want := []string{"added@1", "updated@2", "removed@3"}
	if len(got) != len(want) {
		t.Fatalf("DeltaPublished events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func mustPublish(t *testing.T, svc *Service, r SiteRecord) {
	t.Helper()
	if err := svc.Publish(r); err != nil {
		t.Fatal(err)
	}
}
