package broker

// The delta-subscribed registry read (Config.Incremental): instead of
// fetching every record each pass, the broker mirrors the registry once
// and repairs the mirror only for sites named in arriving deltas, so
// discovery costs one poll round trip plus wire proportional to churn,
// not grid size — the contrast the scale experiment's churn axis
// measures. Selection is unchanged: the pass scans the mirror through
// the same per-record stage as the page scan (matchmaking.go).
//
// The mirror replays the shard logs, so after a poll it equals the
// registry (delta) or the re-pinned shard snapshots (gap) — the same
// records, with the same flat vectors, a page scan would enumerate.
// incremental_test.go holds it to the registry snapshot under random
// mutation bursts; oracle_test.go holds the pass over it to the page
// scan and the naive whole-snapshot reference.

import (
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// mirrorEntry is the subscriber's copy of one registry record: the
// record as published (shared, no-mutate) plus its flat attribute
// vector against the subscriber's schema and the shard it lives on.
type mirrorEntry struct {
	rec   infosys.SiteRecord
	vals  []any
	shard int
}

// subscriber is the broker's delta-subscription mirror of the
// registry: per-shard epoch positions and the record mirror, repaired
// in place as deltas arrive.
type subscriber struct {
	b       *Broker
	src     infosys.DeltaSource
	epochs  []uint64 // position per shard
	applied uint64   // sum of positions == global epoch caught up to
	mirror  map[string]*mirrorEntry
	schema  *infosys.Schema

	polling     bool // a poll is mid-flight (waiting out link costs)
	pollWaiters []*simclock.Trigger

	updScratch []infosys.SubUpdate
}

func newSubscriber(b *Broker, src infosys.DeltaSource) *subscriber {
	return &subscriber{
		b:      b,
		src:    src,
		epochs: make([]uint64, src.ShardCount()),
		mirror: make(map[string]*mirrorEntry),
	}
}

// poll brings the mirror up to date: every shard is asked for what
// changed since the subscriber's position, the answers are fetched at
// one point in time, and their wire costs are paid as parallel
// per-shard link waits — each shard is an independently-publishing
// unit behind its own link, so the pass resumes (cont) when the
// slowest shard's answer lands.
func (s *subscriber) poll(h *Handle, cont func()) {
	// Serialize concurrent passes. The subscriber gives up control while
	// waiting out link costs; a second pass barging in there would reuse
	// the scratch answers and, worse, could apply answers out of fetch
	// order, regressing the mirror to stale records. Queue behind the
	// in-flight poll and fetch from the advanced positions instead.
	if s.polling {
		w := s.b.sim.NewTrigger()
		s.pollWaiters = append(s.pollWaiters, w)
		w.WaitThen(func() { s.poll(h, cont) })
		return
	}
	s.polling = true
	finish := func() {
		s.polling = false
		ws := s.pollWaiters
		s.pollWaiters = nil
		for _, w := range ws {
			w.Fire()
		}
		cont()
	}

	n := len(s.epochs)
	if cap(s.updScratch) < n {
		s.updScratch = make([]infosys.SubUpdate, n)
	}
	upds := s.updScratch[:n]
	var maxCost time.Duration
	for i := range upds {
		upds[i] = s.src.SubscribeImmediate(i, s.epochs[i])
		if upds[i].Cost > maxCost {
			maxCost = upds[i].Cost
		}
	}
	applyAll := func() {
		for i := range upds {
			s.apply(&upds[i], h)
			upds[i] = infosys.SubUpdate{} // release snapshot/delta references
		}
		finish()
	}
	if maxCost > 0 {
		remaining := n
		done := s.b.sim.NewTrigger()
		for i := range upds {
			cost := upds[i].Cost
			s.b.sim.Post(func() {
				s.b.sim.AfterFunc(cost, func() {
					remaining--
					if remaining == 0 {
						done.Fire()
					}
				})
			})
		}
		done.WaitThen(applyAll)
		return
	}
	applyAll()
}

// apply folds one shard's answer into the mirror, advancing the shard
// position to the answer's ToEpoch (for a gap fallback that is the
// re-pinned snapshot's own epoch, so the first post-fallback delta is
// applied exactly once).
func (s *subscriber) apply(u *infosys.SubUpdate, h *Handle) {
	if u.Schema != s.schema {
		s.rebuildSchema(u.Schema)
	}
	if u.Gap {
		s.repin(u)
		h.repins++
		s.b.cfg.Trace.Emit(trace.Event{Kind: trace.SubscriptionGap, N: u.Shard, Epoch: u.ToEpoch})
	} else {
		for i := range u.Deltas {
			s.applyDelta(&u.Deltas[i], u.Shard)
		}
		h.deltas += len(u.Deltas)
	}
	if u.ToEpoch > s.epochs[u.Shard] {
		s.applied += u.ToEpoch - s.epochs[u.Shard]
		s.epochs[u.Shard] = u.ToEpoch
	}
}

// applyDelta repairs the mirror for one mutated site.
func (s *subscriber) applyDelta(d *infosys.Delta, shard int) {
	if d.Kind == infosys.DeltaRemoved {
		delete(s.mirror, d.Name)
		return
	}
	ent := s.mirror[d.Name]
	if ent == nil {
		ent = &mirrorEntry{}
		s.mirror[d.Name] = ent
	}
	ent.rec = d.Rec
	ent.vals = s.schema.Flatten(d.Rec)
	ent.shard = shard
}

// repin rebuilds one shard of the mirror from a re-pinned snapshot
// (the log was compacted past the subscriber's position).
func (s *subscriber) repin(u *infosys.SubUpdate) {
	for name, ent := range s.mirror {
		if ent.shard == u.Shard {
			delete(s.mirror, name)
		}
	}
	snap := u.Snapshot
	for i := 0; i < snap.Len(); i++ {
		rec := snap.RecordShared(i)
		s.mirror[rec.Name] = &mirrorEntry{rec: rec, vals: s.schema.Flatten(rec), shard: u.Shard}
	}
}

// rebuildSchema re-lays the whole mirror out against a new schema
// (compiled predicates are cached per schema pointer, so the next scan
// recompiles against it).
func (s *subscriber) rebuildSchema(sc *infosys.Schema) {
	s.schema = sc
	for _, ent := range s.mirror {
		ent.vals = sc.Flatten(ent.rec)
	}
}
