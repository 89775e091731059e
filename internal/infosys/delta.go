package infosys

// Delta subscriptions: instead of re-reading the registry every
// scheduling pass, a broker tracks each shard's epoch and asks only for
// what changed since. Each shard is an independently-publishing unit —
// it keeps a bounded per-epoch delta log alongside its rows, and
// SubscribeImmediate(shard, since) answers with the missed deltas, or
// with a snapshot re-pin when the log has been compacted past the
// subscriber's position. Because every effective mutation bumps the
// owning shard's epoch by exactly one and appends exactly one delta, a
// shard's log covers a contiguous epoch interval and "covered" is a
// pure range check.
//
// Either way the answer carries the shard snapshot it caught the
// subscriber up to, which the registry already holds (a snapshot wraps
// the shard's standing rows), so a subscriber keeps no copy of the
// records: what the deltas or the re-pin decide is the modeled wire
// cost. It is modeled with a netsim link profile per shard
// (SetShardLink): a delta poll pays one round trip plus the serialized
// deltas, a re-pin pays one round trip plus the whole shard — which is
// exactly the cost asymmetry the scale experiment's churn axis
// measures. Without a link profile the classic flat query latency is
// charged.

import (
	"time"

	"crossbroker/internal/netsim"
	"crossbroker/internal/trace"
)

// DeltaKind classifies one registry mutation.
type DeltaKind uint8

const (
	// DeltaAdded is a publish of a site not currently registered.
	DeltaAdded DeltaKind = iota
	// DeltaUpdated is a publish replacing an existing record.
	DeltaUpdated
	// DeltaRemoved is an effective Remove.
	DeltaRemoved
)

// String names the delta kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAdded:
		return "added"
	case DeltaUpdated:
		return "updated"
	case DeltaRemoved:
		return "removed"
	}
	return "unknown"
}

// Delta is one logged mutation of one shard.
type Delta struct {
	// Kind says whether the site was added, updated or removed.
	Kind DeltaKind
	// Epoch is the shard epoch the mutation created (contiguous within
	// a shard: each effective mutation bumps the epoch by exactly one).
	Epoch uint64
	// Name is the site the mutation touched.
	Name string
	// Rec is the record as published, under the registry's no-mutate
	// sharing contract (zero value for DeltaRemoved).
	Rec SiteRecord
}

// SubUpdate is one shard's answer to a subscription poll.
type SubUpdate struct {
	// Shard is the shard index the answer is for.
	Shard int
	// FromEpoch is the subscriber's position the poll asked from;
	// ToEpoch is the position the subscriber holds after the answer:
	// always Snapshot's own epoch — on a gap fallback NOT the epoch the
	// log happened to reach — so the first later delta (epoch
	// ToEpoch+1) is counted exactly once.
	FromEpoch, ToEpoch uint64
	// Deltas are the missed mutations in epoch order (empty on a no-op
	// poll and on a gap fallback).
	Deltas []Delta
	// Gap reports that the log was compacted past FromEpoch, so the
	// answer costs the whole snapshot on the wire.
	Gap bool
	// Snapshot is the shard as the subscriber now holds it: the shard
	// as served at ToEpoch (frozen while the service is partitioned),
	// equal to what replaying Deltas over the previous answer's
	// snapshot yields.
	Snapshot *Snapshot
	// Cost is the modeled wire cost of this answer; the caller charges
	// it.
	Cost time.Duration
}

// DeltaSource is the subscription surface a delta-subscribed broker
// consumes; *Service implements it.
type DeltaSource interface {
	ServesSubscriptions() bool
	ShardCount() int
	SubscribeImmediate(shard int, since uint64) SubUpdate
}

// ServesSubscriptions reports whether the index keeps per-shard delta
// logs or puts its shards behind links, the deployments that serve
// delta subscribers: a broker built on it subscribes (DESIGN.md §3b).
func (s *Service) ServesSubscriptions() bool { return s.deltaDepth > 0 || s.hasLink }

// deltaLog is one shard's bounded mutation history: a ring of the last
// (at most) depth deltas. Epochs in the ring are contiguous, so the
// ring covers [first, first+n).
type deltaLog struct {
	buf   []Delta
	start int    // ring index of the oldest retained delta
	n     int    // retained count
	first uint64 // epoch of the oldest retained delta (valid when n > 0)
}

func newDeltaLog(depth int) *deltaLog { return &deltaLog{buf: make([]Delta, depth)} }

// append logs one delta, compacting (dropping) the oldest when full.
func (l *deltaLog) append(d Delta) {
	if l.n == 0 {
		l.first = d.Epoch
	}
	if l.n == len(l.buf) {
		l.buf[l.start] = d
		l.start = (l.start + 1) % len(l.buf)
		l.first++
		return
	}
	l.buf[(l.start+l.n)%len(l.buf)] = d
	l.n++
}

// slice returns the deltas covering (since, target] in epoch order, or
// ok=false when the log has been compacted past since+1.
func (l *deltaLog) slice(since, target uint64) ([]Delta, bool) {
	if since+1 < l.first || l.n == 0 {
		return nil, false
	}
	last := l.first + uint64(l.n) - 1
	if target > last {
		return nil, false
	}
	count := int(target - since)
	out := make([]Delta, count)
	off := int(since + 1 - l.first)
	for i := 0; i < count; i++ {
		out[i] = l.buf[(l.start+off+i)%len(l.buf)]
	}
	return out, true
}

// Serialized sizes used by the link cost model: a delta is one record's
// worth of attributes, a re-pin streams the denser snapshot encoding.
const (
	deltaWireBytes  = 256
	recordWireBytes = 512
)

// SetDeltaLog enables per-shard delta logs of the given depth (the
// DeltaLogDepth knob). Depth <= 0 disables logging: every
// epoch-advancing poll then falls back to a snapshot re-pin, which is
// the degraded mode the scale experiment's "repin" cells measure.
// Configure at setup time, before broker.New reads ServesSubscriptions.
func (s *Service) SetDeltaLog(depth int) {
	s.deltaDepth = depth
	for _, sh := range s.shards {
		if depth > 0 {
			sh.log = newDeltaLog(depth)
		} else {
			sh.log = nil
		}
	}
}

// SetShardLink models each shard as an independently-publishing unit
// behind its own network link: subscription answers are charged p's
// round trip plus transfer time for what they carry, instead of the
// flat query latency. Configure at setup time, before broker.New reads
// ServesSubscriptions.
func (s *Service) SetShardLink(p netsim.Profile) { s.link, s.hasLink = p, true }

// SetTracer wires a tracer to the registry: every effective mutation
// emits a DeltaPublished event while delta logs are enabled. Configure
// at setup time.
func (s *Service) SetTracer(t *trace.Tracer) { s.tracer = t }

// subCost models the wire cost of one subscription answer.
func (s *Service) subCost(nDeltas int, repin *Snapshot) time.Duration {
	if !s.hasLink {
		return s.queryLatency
	}
	if repin != nil {
		return s.link.RTT() + s.link.TransferTime(repin.Len()*recordWireBytes)
	}
	return s.link.RTT() + s.link.TransferTime(nDeltas*deltaWireBytes)
}

// SubscribeImmediate polls shard for mutations since the given shard
// epoch without charging the answer's cost — the delta-subscribed
// broker polls every shard and charges the slowest answer once, as
// parallel per-shard link waits.
//
// While the service is partitioned the answer stops at the frozen
// shard snapshot: the subscriber can catch up to the cut point but sees
// nothing published behind the partition until it heals.
//
// The answer carries the shard as served, and the subscriber's new
// position is that snapshot's own epoch — not whatever epoch the log
// has reached since, which would skip or replay the mutations in
// between. The missed deltas or, when the log no longer covers them,
// the whole snapshot only set the modeled wire cost.
func (s *Service) SubscribeImmediate(shard int, since uint64) SubUpdate {
	snap := s.shardView(shard)
	u := SubUpdate{Shard: shard, FromEpoch: since, ToEpoch: snap.epoch, Snapshot: snap}
	if since >= snap.epoch {
		u.Cost = s.subCost(0, nil)
		return u
	}
	sh := s.shards[shard]
	covered := false
	if sh.log != nil {
		u.Deltas, covered = sh.log.slice(since, snap.epoch)
	}
	if covered {
		u.Cost = s.subCost(len(u.Deltas), nil)
	} else {
		u.Gap = true
		u.Cost = s.subCost(0, snap)
	}
	return u
}

// logDelta appends one mutation to shard si's delta log and, with a
// tracer wired, emits its DeltaPublished event.
func (s *Service) logDelta(si int, k DeltaKind, rec SiteRecord) {
	sh := s.shards[si]
	if sh.log == nil {
		return
	}
	sh.log.append(Delta{Kind: k, Epoch: sh.epoch, Name: rec.Name, Rec: rec})
	if s.tracer != nil {
		s.tracer.Emit(trace.Event{Kind: trace.DeltaPublished,
			Site: rec.Name, N: si, Epoch: s.epoch, Detail: k.String()})
	}
}

// Flatten lays one record's attributes out against the schema, in
// offset order, as a snapshot lays out its rows; benchmarks use it to
// evaluate compiled predicates without a registry.
func (sc *Schema) Flatten(r SiteRecord) []any { return valsFor(r, sc) }

// PooledMatchAttrs wraps an externally-held flat value slice (laid out
// against sc, e.g. by Schema.Flatten) in a pooled MatchAttrs vector.
// The slice is copied; the caller must Release the vector.
func PooledMatchAttrs(sc *Schema, vals []any) *MatchAttrs {
	m := matchAttrsPool.Get().(*MatchAttrs)
	m.schema = sc
	if cap(m.vals) < len(vals) {
		m.vals = make([]any, len(vals))
	} else {
		m.vals = m.vals[:len(vals)]
	}
	copy(m.vals, vals)
	return m
}
