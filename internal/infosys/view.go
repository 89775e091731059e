package infosys

import (
	"sync"
	"time"
)

// freeze is the partition switch a Service and each of its Views carry:
// while cut, every read through the holder — whole-grid, paged or
// subscribed — is answered from the shard snapshots, and their merge,
// that the holder served at cut time.
type freeze struct {
	cutMu     sync.Mutex
	cutShards []*Snapshot // one per shard; non-nil exactly while cut
	cutWhole  *Snapshot
}

// thawed is what a freeze's holder serves while it is not cut: the live
// registry for a Service, the service (which may itself be cut) for a
// View.
type thawed interface {
	ShardCount() int
	thawedShard(i int) *Snapshot
	thawedWhole() *Snapshot
}

// Partitioned reports whether the holder is serving its cut-time view.
func (f *freeze) Partitioned() bool {
	f.cutMu.Lock()
	defer f.cutMu.Unlock()
	return f.cutShards != nil
}

// set cuts the holder, freezing what t serves right now, or heals it.
// Idempotent per direction: a second cut keeps the first cut's view.
func (f *freeze) set(cut bool, t thawed) {
	if !cut {
		f.cutMu.Lock()
		f.cutShards, f.cutWhole = nil, nil
		f.cutMu.Unlock()
		return
	}
	if f.Partitioned() {
		return
	}
	shards := make([]*Snapshot, t.ShardCount())
	for i := range shards {
		shards[i] = t.thawedShard(i)
	}
	whole := t.thawedWhole()
	f.cutMu.Lock()
	if f.cutShards == nil {
		f.cutShards, f.cutWhole = shards, whole
	}
	f.cutMu.Unlock()
}

// servedShard is shard i as the holder serves it: frozen while cut,
// t's otherwise.
func (f *freeze) servedShard(i int, t thawed) *Snapshot {
	f.cutMu.Lock()
	shards := f.cutShards
	f.cutMu.Unlock()
	if shards != nil {
		return shards[i]
	}
	return t.thawedShard(i)
}

// servedWhole is the whole-grid snapshot as the holder serves it.
func (f *freeze) servedWhole(t thawed) *Snapshot {
	f.cutMu.Lock()
	whole := f.cutWhole
	f.cutMu.Unlock()
	if whole != nil {
		return whole
	}
	return t.thawedWhole()
}

// View is one broker's window onto a shared Service. Reads and writes
// delegate to the service, but the partition switch is per view: while
// a view is cut it serves the snapshots frozen at its own cut time,
// so in a federation each broker can be split-brained independently —
// two brokers over one registry scheduling against different frozen
// worlds until their partitions heal. A healed view resumes serving
// the live registry on the next query.
type View struct {
	svc *Service
	freeze
}

// NewView creates a per-broker view of the service.
func (s *Service) NewView() *View { return &View{svc: s} }

// Publish delegates to the shared registry (publishes always land,
// partitioned or not — the cut is between broker and index, not
// between site and index).
func (v *View) Publish(rec SiteRecord) error { return v.svc.Publish(rec) }

// Remove delegates to the shared registry.
func (v *View) Remove(name string) { v.svc.Remove(name) }

// QueryLatency returns the underlying service's per-query cost.
func (v *View) QueryLatency() time.Duration { return v.svc.queryLatency }

// ShardCount reports the underlying service's shard count.
func (v *View) ShardCount() int { return v.svc.ShardCount() }

// SnapshotImmediate returns the view's whole-grid snapshot without
// charging query latency: the frozen merge while this view is
// partitioned, the service's current view otherwise (which may itself
// be frozen by a service-wide partition).
func (v *View) SnapshotImmediate() *Snapshot { return v.freeze.servedWhole(v) }

// DiscoverImmediate starts a paged traversal without the latency
// charge; pages are served from the view's frozen shards while it is
// partitioned.
func (v *View) DiscoverImmediate(pageSize int) *Cursor { return newCursor(v, pageSize) }

// shardView pins shard i as this view currently sees it.
func (v *View) shardView(i int) *Snapshot { return v.freeze.servedShard(i, v) }

// SetPartitioned cuts (or heals) this view's link to the index,
// freezing what the view serves at the snapshots of cut time. Other
// views of the same service are unaffected. Idempotent per direction.
func (v *View) SetPartitioned(cut bool) { v.freeze.set(cut, v) }

// thawedShard is shard i as the service serves it.
func (v *View) thawedShard(i int) *Snapshot { return v.svc.shardView(i) }

// thawedWhole is the whole grid as the service serves it.
func (v *View) thawedWhole() *Snapshot { return v.svc.SnapshotImmediate() }
