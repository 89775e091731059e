package broker

// The delta-subscribed registry read (Info.ServesSubscriptions): instead
// of fetching every record each pass, the broker polls each shard for what
// changed since its last pass, so discovery costs one poll round trip
// plus wire proportional to churn, not grid size — the contrast the
// scale experiment's churn axis measures. Selection is unchanged.
//
// Every answer carries the shard snapshot it caught the broker up to
// (the shard as its reader is served it, frozen during a partition),
// which the registry already holds. The subscriber keeps those pins,
// one per shard, and no copy of the records: the pass pages them
// through the same cursor loop and per-record stage as a discovery
// query (matchmaking.go). incremental_test.go holds the pins to the
// registry under random mutation bursts; oracle_test.go holds the pass
// over them to the page scan and the naive whole-snapshot reference.

import (
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/trace"
)

// subscriber is the broker's delta subscription to the registry: the
// shard snapshots its polls caught up to, whose epochs are its
// positions.
type subscriber struct {
	b       *Broker
	src     infosys.DeltaSource
	pins    []*infosys.Snapshot // per shard; nil before the first poll
	applied uint64              // sum of the pins' epochs == global epoch caught up to

	polling bool         // a poll is mid-flight (waiting out link costs)
	waiting []pollWaiter // passes queued behind it, in arrival order

	updScratch []infosys.SubUpdate
}

// pollWaiter is a pass queued behind the in-flight poll.
type pollWaiter struct {
	h    *Handle
	cont func()
}

func newSubscriber(b *Broker, src infosys.DeltaSource) *subscriber {
	return &subscriber{b: b, src: src, pins: make([]*infosys.Snapshot, src.ShardCount())}
}

// poll brings the pins up to date: every shard is asked for what
// changed since the subscriber's position, the answers are fetched at
// one point in time, and their wire costs are paid as parallel
// per-shard link waits — each shard is an independently-publishing
// unit behind its own link, so the pass resumes (cont) when the
// slowest shard's answer lands.
func (s *subscriber) poll(h *Handle, cont func()) {
	// Serialize concurrent passes. The subscriber gives up control while
	// waiting out link costs; a second pass barging in there would reuse
	// the scratch answers and, worse, could apply answers out of fetch
	// order, regressing the pins to stale snapshots. Queue behind the
	// in-flight poll and fetch from the advanced positions instead.
	if s.polling {
		s.waiting = append(s.waiting, pollWaiter{h, cont})
		return
	}
	s.polling = true
	finish := func() {
		s.polling = false
		if queued := s.waiting; len(queued) > 0 {
			s.waiting = nil
			s.b.sim.Post(func() { s.handOff(queued) })
		}
		cont()
	}

	n := len(s.pins)
	if cap(s.updScratch) < n {
		s.updScratch = make([]infosys.SubUpdate, n)
	}
	upds := s.updScratch[:n]
	var maxCost time.Duration
	for i := range upds {
		var since uint64
		if s.pins[i] != nil {
			since = s.pins[i].Epoch()
		}
		upds[i] = s.src.SubscribeImmediate(i, since)
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

// handOff gives the passes queued when a poll finished their turn in
// one event, in arrival order: each polls while none is in flight, then
// the rest queue again behind whoever queued since. That is the order of
// waking each in an event of its own, at one wake-up per finished poll.
func (s *subscriber) handOff(queued []pollWaiter) {
	for i, w := range queued {
		if s.polling {
			if len(s.waiting) == 0 {
				s.waiting = queued[i:]
			} else {
				s.waiting = append(s.waiting, queued[i:]...)
			}
			return
		}
		queued[i] = pollWaiter{}
		s.poll(w.h, w.cont)
	}
}

// apply takes one shard's answer: its snapshot becomes the shard's pin,
// and the pin's epoch the shard's position (for a gap fallback that is
// the re-pinned snapshot's own epoch, so the first post-fallback delta
// is counted exactly once).
func (s *subscriber) apply(u *infosys.SubUpdate, h *Handle) {
	if u.Gap {
		h.repins++
		s.b.cfg.Trace.Emit(trace.Event{Kind: trace.SubscriptionGap, N: u.Shard, Epoch: u.ToEpoch})
	} else {
		h.deltas += len(u.Deltas)
	}
	s.applied += u.ToEpoch - u.FromEpoch
	s.pins[u.Shard] = u.Snapshot
}
