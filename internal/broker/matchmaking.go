package broker

import (
	"container/heap"
	"sort"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// candidate is one matched site with fresh state.
type candidate struct {
	site   *site.Site
	free   int // effective free CPUs (after leases)
	queued int
	rank   float64
	noise  float64 // randomized tie-break
}

// candBetter orders candidates best first: rank descending, then the
// seeded tie-break noise, then site name so the order is total.
func candBetter(a, b *candidate) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	if a.noise != b.noise {
		return a.noise < b.noise
	}
	return a.site.Name() < b.site.Name()
}

// selectionNoise derives a candidate's tie-break noise in [0, 1) from
// the pass nonce and the site name (FNV-1a). Hashing instead of
// drawing per candidate makes the noise — and with it the selection
// outcome — independent of enumeration order, so a scan of discovery
// pages (shard-major) and a scan of the subscriber's mirror (a Go map:
// any order) pick identical sites for the same seed.
func selectionNoise(nonce uint64, name string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (nonce >> (8 * i)) & 0xff
		h *= prime64
	}
	return float64(h>>11) / (1 << 53)
}

// localSnapshot rebuilds the local-registry snapshot for brokers
// running without an information service. The previous snapshot is
// threaded through so the schema pointer — and with it each job's
// compiled-predicate cache — survives rebuilds; records come from
// site.Record() already private, so the snapshot takes ownership
// instead of cloning a second time.
func (b *Broker) localSnapshot() *infosys.Snapshot {
	recs := make([]infosys.SiteRecord, 0, len(b.sites))
	for _, s := range b.sites {
		recs = append(recs, s.Record())
	}
	snap := infosys.NewSnapshotOwned(recs, b.lastSnap)
	b.lastSnap = snap
	return snap
}

// The match pipeline. Every matchmaking pass is the same stages:
//
//	registry read → per record: admit → evaluate → keep-K → finishSelection
//
// The registry read is the pass's one fork. By default the broker
// fetches the published records of the whole registry: one discovery
// round trip, then a cursor of pages. A delta-subscribed broker
// (Config.Incremental, incremental.go) polls each shard for what
// changed since its last pass and repairs a mirror, so discovery costs
// wire proportional to churn. Either way the pass then visits every
// record the read returned through the one per-record stage
// (passScan.record), so for the same registry, seed and breaker state
// the two reads produce the same ordered candidates; oracle_test.go
// checks both against a naive whole-snapshot reference.

// probeTask carries one admitted, requirement-matched site from the
// keep-K stage through the direct state probe: vals is the record's
// published flat attribute vector laid out against schema — shared
// with the snapshot or mirror it came from, never written — free and
// queued are filled by probeSites, prelim and noise order the keep-K
// stage.
type probeTask struct {
	st           *site.Site
	schema       *infosys.Schema
	vals         []any
	free, queued int
	ok           bool    // direct probe answered (site reachable)
	prelim       float64 // published-state rank (keep-K ordering)
	noise        float64 // seeded tie-break, shared with the final order
}

// probeBetter orders kept tasks by preliminary rank descending, then
// noise, then site name — the same total order candBetter applies
// after probing.
func probeBetter(a, b *probeTask) bool {
	if a.prelim != b.prelim {
		return a.prelim > b.prelim
	}
	if a.noise != b.noise {
		return a.noise < b.noise
	}
	return a.st.Name() < b.st.Name()
}

// topkHeap is a bounded min-heap of the best K candidates seen so far:
// the root is the worst kept entry, so a better newcomer replaces it
// in O(log K). It grows by append + heap.Fix, not heap.Push, which
// would box the 80-byte task into an interface on every push.
type topkHeap []probeTask

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return probeBetter(&h[j], &h[i]) }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(probeTask)) }
func (h *topkHeap) Pop() any          { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// admit is the pipeline's admission stage: it resolves one enumerated
// site name to its registered site, or rejects it. A name the pass was
// told to exclude, and a stale record for an unregistered site, are
// skipped silently (st nil); a site whose circuit breaker excludes it
// is skipped and reported unavailable — checked before registration,
// because a stale record may still carry breaker state from before the
// site was unregistered. One index lookup resolves site and breaker
// together, and now is read once per pass: no virtual time passes
// inside the synchronous source→keep-K stretch.
func (b *Broker) admit(name string, excluded map[string]bool, now time.Time) (st *site.Site, unavailable bool) {
	if excluded[name] {
		return nil, false
	}
	ent, registered := b.scan[name]
	hl := ent.hl
	if !registered {
		hl = b.health[name]
	}
	if breakerOpen(hl, now) {
		return nil, true
	}
	return ent.st, false
}

// evaluate is the pipeline's evaluation stage, the one place a job's
// predicates meet a published record: Requirements, then whether the
// job's InputData can reach the site at all, then the preliminary rank
// on published state (the job's Rank expression or free CPUs, minus
// the staging penalty). name, freeCPUs and vals are the record's: vals
// its flat vector laid out against sc, which compiled predicates only
// read, so it is evaluated in place, shared. A failing or erroring
// Requirements clause and an unobtainable dataset both fail the site;
// a Rank evaluation error passes it with rankErr set, for the keep-K
// stage to drop (bounded pass) or finishSelection to exclude after
// probing (unbounded pass).
func (b *Broker) evaluate(job *jdl.Job, sc *infosys.Schema, vals []any, name string, freeCPUs int) (pass bool, prelim float64, rankErr bool) {
	// Schema pointers are stable while the attribute name set is, so
	// this is a pointer comparison against the job's cached programs.
	req, rank := job.CompiledPredicates(sc)
	if req != nil {
		if ok, err := req.EvalBool(vals); err != nil || !ok {
			return false, 0, false
		}
	}
	pen, ok := b.dataPenalty(job, name)
	if !ok {
		return false, 0, false
	}
	if rank == nil {
		prelim = float64(freeCPUs)
	} else if r, err := rank.EvalNumber(vals); err != nil {
		rankErr = true
	} else {
		prelim = r
	}
	return true, prelim - pen, rankErr
}

// newTask is the pipeline's task constructor: it fills p, which must be
// zero, for an admitted, passing site and stamps its tie-break noise
// for this pass. It writes through a pointer because the scan builds a
// task per passing record and few enter the bounded heap; returning
// the 80-byte struct by value cost the scan a copy per record.
func (b *Broker) newTask(p *probeTask, st *site.Site, sc *infosys.Schema, vals []any, prelim float64, nonce uint64) {
	p.st, p.schema, p.vals, p.prelim = st, sc, vals, prelim
	if !b.cfg.Deterministic {
		p.noise = selectionNoise(nonce, st.Name())
	}
}

// matchPass runs one discovery+selection attempt for h and hands the
// ordered candidates to cont. It forks once, on how this broker reads
// the registry (a poll of the delta subscription, a discovery query,
// or the local sites for a broker without an information service);
// every step after the read exists once. With TopK > 0 only the K best candidates by published-state rank are held
// (heap), so the pass keeps O(PageSize + K) state no matter how many
// sites match; with TopK <= 0 every match is kept. Survivors are probed
// and re-ranked on fresh state by finishSelection.
func (b *Broker) matchPass(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	if b.matchOracle != nil {
		b.matchOracle(h, excluded, cont)
		return
	}
	h.state = Matching

	dstart := b.sim.Now()
	// selectFrom runs once the read has landed: over the discovery
	// cursor, or over the subscriber's mirror when cur is nil.
	selectFrom := func(cur *infosys.Cursor) {
		h.Phases.Discovery = b.sim.Since(dstart)

		sstart := b.sim.Now()
		h.unavailable, h.scanned, h.peak = 0, 0, 0
		s := passScan{b: b, h: h, excluded: excluded, now: sstart, nonce: b.rng.Uint64(), keep: b.getTasks()}
		if cur == nil {
			for name, ent := range b.sub.mirror {
				s.record(b.sub.schema, name, ent.vals, ent.rec.FreeCPUs)
			}
		} else {
			for page, ok := cur.Next(); ok; page, ok = cur.Next() {
				sc := page.Snapshot().Schema()
				for i := 0; i < page.Len(); i++ {
					s.record(sc, page.Name(i), page.Values(i), page.RecordShared(i).FreeCPUs)
				}
			}
		}
		kept := []probeTask(s.keep)
		b.finishSelection(h, kept, func(cands []candidate) {
			b.putTasks(kept)
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	}
	switch info := b.cfg.Info; {
	case b.sub != nil:
		h.polledAt = dstart
		h.deltas, h.repins = 0, 0
		b.sub.poll(h, func() {
			h.matchEpoch = b.sub.applied
			selectFrom(nil)
		})
	case info != nil:
		b.sim.AfterFunc(info.QueryLatency(), func() { selectFrom(info.DiscoverImmediate(b.cfg.PageSize)) })
	default:
		selectFrom(b.localSnapshot().Cursor(b.cfg.PageSize))
	}
}

// passScan is one pass's synchronous stretch from registry read to
// kept set: the pass-wide inputs of the per-record stage and the
// bounded heap it fills. Pure computation, no virtual time passes
// inside it — the read's latency and the probes happen outside.
type passScan struct {
	b        *Broker
	h        *Handle
	excluded map[string]bool
	now      time.Time
	nonce    uint64
	keep     topkHeap
}

// record is the per-record stage, run for every record the registry
// read returned — each page record of a discovery cursor, each entry of
// a subscriber's mirror: count it, admit, evaluate, build the task,
// keep it if it is among the K best so far. The pass visits every
// published record, so this is what large grids pay for. The kept set
// and the counters do not depend on the order records arrive in
// (probeBetter is a total order and the noise is hashed from the name),
// which the mirror, a Go map, relies on.
func (s *passScan) record(sc *infosys.Schema, name string, vals []any, freeCPUs int) {
	b, h, topk := s.b, s.h, s.b.cfg.TopK
	h.scanned++
	st, unavailable := b.admit(name, s.excluded, s.now)
	if unavailable {
		h.unavailable++
	}
	if st == nil {
		return
	}
	pass, prelim, rankErr := b.evaluate(h.request.Job, sc, vals, name, freeCPUs)
	if !pass || (rankErr && topk > 0) {
		return
	}
	var p probeTask
	b.newTask(&p, st, sc, vals, prelim, s.nonce)
	switch {
	case topk <= 0:
		s.keep = append(s.keep, p)
	case len(s.keep) < topk:
		s.keep = append(s.keep, p)
		heap.Fix(&s.keep, len(s.keep)-1)
	case probeBetter(&p, &s.keep[0]):
		s.keep[0] = p
		heap.Fix(&s.keep, 0)
	}
	if len(s.keep) > h.peak {
		h.peak = len(s.keep)
	}
}

// finishSelection contacts each kept site directly for up-to-date
// queue state (serially or probeWidth-wide, see Config.ProbeWidth),
// applies leases, ranks the survivors on the fresh state (job Rank
// expression or free CPUs), and orders candidates best first with the
// seeded tie-break. A candidate whose Rank evaluation errors is
// excluded, exactly like a failing Requirements evaluation.
func (b *Broker) finishSelection(h *Handle, kept []probeTask, cont func([]candidate)) {
	// Probe in site-name order no matter how the scan enumerated its
	// matches (shard-major pages, a map-ordered mirror, top-K heap):
	// probes spend simulated time, so a stable order keeps lease
	// expiries and concurrent passes interleaving identically across
	// registry reads.
	sort.Slice(kept, func(i, j int) bool { return kept[i].st.Name() < kept[j].st.Name() })
	// Scan and finishSelection run in one event, so the probe-back
	// claims land before any concurrent pass can filter.
	for i := range kept {
		b.claimHalfOpen(kept[i].st.Name())
	}
	// "Information may not be completely accurate ... CrossBroker
	// contacts each remote site individually and gets the most updated
	// information about the state of their local queues."
	b.probeSites(kept, func() {
		cont(b.rankProbed(h, kept))
	})
}

// rankProbed is the pure post-probe half of finishSelection: apply
// probe outcomes, re-rank survivors on fresh state, order best first.
func (b *Broker) rankProbed(h *Handle, kept []probeTask) []candidate {
	job := h.request.Job
	cands := make([]candidate, 0, len(kept))
	for _, p := range kept {
		if !p.ok {
			// The direct probe went unanswered: the record is stale,
			// the site is down or cut off. Exclude it this pass.
			h.unavailable++
			continue
		}
		c := candidate{site: p.st, free: p.free, queued: p.queued, noise: p.noise}
		// The staging penalty is recomputed here (not carried from the
		// pass) so the final rank derives from the same inputs whichever
		// source kept the task; unobtainable sites were already excluded
		// pre-probe.
		pen, _ := b.dataPenalty(job, p.st.Name())
		_, rank := job.CompiledPredicates(p.schema)
		if rank != nil {
			// The one copy of the published vector a pass makes per kept
			// site: fresh queue state is overlaid on it.
			m := infosys.PooledMatchAttrs(p.schema, p.vals)
			m.SetQueueState(p.free, p.queued)
			r, err := rank.EvalNumber(m.Values())
			m.Release()
			if err != nil {
				continue
			}
			c.rank = r - pen
		} else {
			c.rank = float64(p.free) - pen
		}
		cands = append(cands, c)
	}
	// Best rank first; equal ranks in seeded-noise order (the paper's
	// randomized selection "to generate different answers when there
	// are multiple resource choices"); in Deterministic mode all noise
	// is zero and ties resolve by site name.
	sort.Slice(cands, func(i, j int) bool { return candBetter(&cands[i], &cands[j]) })
	return cands
}

// getTasks and putTasks pool probeTask slices across streamed
// matchmaking passes: the replay hot loop runs one pass per
// submission, and a fresh slice per pass was the broker's largest
// allocation source. A free list (rather than a single scratch
// buffer) is needed because probing spends simulated time, so several
// passes can be in flight.
func (b *Broker) getTasks() []probeTask {
	if n := len(b.taskPool); n > 0 {
		t := b.taskPool[n-1]
		b.taskPool = b.taskPool[:n-1]
		return t
	}
	return nil
}

func (b *Broker) putTasks(t []probeTask) {
	for i := range t {
		t[i] = probeTask{} // drop site and attribute-vector pointers
	}
	b.taskPool = append(b.taskPool, t[:0])
}

// probeSites fills each task's free/queued fields via the site's
// direct QueryStateAsync, subtracting the broker's active leases as
// each answer arrives (so concurrent matchmaking passes see each
// other's reservations). With ProbeWidth <= 1 sites are contacted one
// after another (the paper's behavior: selection costs the sum of site
// round trips, ~3 s for 20 sites in Table I). With a larger width that
// many workers pull from a shared counter, each chaining its probes,
// and the elapsed simulated time is the maximum round trip over each
// worker's share.
func (b *Broker) probeSites(tasks []probeTask, cont func()) {
	n := len(tasks)
	if n == 0 {
		cont()
		return
	}
	handle := func(i, free, queued int, ok bool) {
		tasks[i].ok = ok
		if !ok {
			b.noteSiteFailure(tasks[i].st.Name())
			return
		}
		b.noteProbeAnswered(tasks[i].st.Name())
		free -= b.activeLeases(tasks[i].st.Name())
		if free < 0 {
			free = 0
		}
		tasks[i].free, tasks[i].queued = free, queued
	}
	width := b.cfg.ProbeWidth
	if width >= 0 && width <= 1 {
		var step func(i int)
		step = func(i int) {
			if i == n {
				cont()
				return
			}
			tasks[i].st.QueryStateAsync(func(free, queued int, ok bool) {
				handle(i, free, queued, ok)
				step(i + 1)
			})
		}
		step(0)
		return
	}
	workers := n
	if width > 0 && width < n {
		workers = width
	}
	next := 0
	remaining := workers
	done := b.sim.NewTrigger()
	var runWorker func()
	runWorker = func() {
		if next >= n {
			remaining--
			if remaining == 0 {
				done.Fire()
			}
			return
		}
		i := next
		next++
		tasks[i].st.QueryStateAsync(func(free, queued int, ok bool) {
			handle(i, free, queued, ok)
			runWorker()
		})
	}
	for w := 0; w < workers; w++ {
		b.sim.Post(runWorker)
	}
	done.WaitThen(cont)
}

// PassStats describes one matchmaking pass for instrumentation (the
// scale sweep and benchmarks).
type PassStats struct {
	// Scanned counts the registry records the pass enumerated.
	Scanned int
	// Candidates is the number of ordered candidates returned.
	Candidates int
	// Peak is the most candidates the pass held at once — the pass's
	// memory high-water mark, bounded by Config.TopK when set.
	Peak int
	// Unavailable counts matches skipped as quarantined or probe-dead.
	Unavailable int
	// Deltas and Repins count, for the incremental pass, the per-site
	// deltas applied and the shard snapshot re-pins (gap fallbacks) the
	// deciding poll performed; zero on the other paths.
	Deltas, Repins int
	// Discovery and Selection are the simulated phase durations.
	Discovery, Selection time.Duration
}

// SelectionPassStatsAsync runs one matchmaking pass (discovery plus
// selection) for job and delivers its instrumentation counters and
// simulated phase durations to cont when the pass completes; it may be
// called from any context. The scale sweep, benchmarks and gridbench
// use it to measure the pipeline end to end.
func (b *Broker) SelectionPassStatsAsync(job *jdl.Job, cont func(PassStats)) {
	h := &Handle{request: Request{Job: job}}
	b.matchPass(h, nil, func(cands []candidate) {
		cont(PassStats{
			Scanned:     h.scanned,
			Candidates:  len(cands),
			Peak:        h.peak,
			Unavailable: h.unavailable,
			Deltas:      h.deltas,
			Repins:      h.repins,
			Discovery:   h.Phases.Discovery,
			Selection:   h.Phases.Selection,
		})
	})
}

// leaseEntry is a batch of leases sharing one expiry instant.
type leaseEntry struct {
	exp time.Time
	n   int
}

// leaseQueue tracks a site's exclusive-temporal-access leases as a
// count plus a queue of expiry batches sorted by expiry. Without
// LeaseJitter expiries arrive in non-decreasing order and pushes are
// O(1) appends; a jittered expiry may land slightly out of order and
// is bubbled back to its slot (the jitter window is a fraction of one
// lease duration, so the walk stays short). Pruning pops expired
// batches from the front in O(1) amortized, replacing the per-CPU
// slice the broker previously rebuilt on every pass.
type leaseQueue struct {
	entries []leaseEntry
	head    int
	count   int
}

// push adds n leases expiring at exp, merging with the newest batch
// when the expiry matches (several CPUs leased in one pass).
func (q *leaseQueue) push(exp time.Time, n int) {
	q.count += n
	if last := len(q.entries) - 1; last >= q.head && q.entries[last].exp.Equal(exp) {
		q.entries[last].n += n
		return
	}
	q.entries = append(q.entries, leaseEntry{exp: exp, n: n})
	for i := len(q.entries) - 1; i > q.head && q.entries[i].exp.Before(q.entries[i-1].exp); i-- {
		q.entries[i], q.entries[i-1] = q.entries[i-1], q.entries[i]
	}
}

// prune drops batches whose expiry has passed and returns the live
// lease count.
func (q *leaseQueue) prune(now time.Time) int {
	for q.head < len(q.entries) && !q.entries[q.head].exp.After(now) {
		q.count -= q.entries[q.head].n
		q.entries[q.head] = leaseEntry{}
		q.head++
	}
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	}
	return q.count
}

// drop releases n leases from the newest batches (the job started or
// failed, so the most recent reservation is undone), mirroring the
// previous slice truncation.
func (q *leaseQueue) drop(n int) {
	for n > 0 && len(q.entries) > q.head {
		last := len(q.entries) - 1
		if q.entries[last].n > n {
			q.entries[last].n -= n
			q.count -= n
			return
		}
		n -= q.entries[last].n
		q.count -= q.entries[last].n
		q.entries = q.entries[:last]
	}
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	}
}

// activeLeases counts unexpired leases for a site, pruning expired
// ones.
func (b *Broker) activeLeases(name string) int {
	q := b.leases[name]
	if q == nil {
		return 0
	}
	return q.prune(b.sim.Now())
}

// lease reserves n CPUs on a site for the exclusive-temporal-access
// window on behalf of h's current attempt. With LeaseJitter set the
// window is stretched by a seeded random fraction, so two federated
// brokers whose leases were acquired in the same tick expire — and
// re-probe the grid — at different instants.
func (b *Broker) lease(h *Handle, name string, n int) {
	q := b.leases[name]
	if q == nil {
		q = &leaseQueue{}
		b.leases[name] = q
	}
	d := b.cfg.LeaseDuration
	if b.cfg.LeaseJitter > 0 {
		d += time.Duration(b.cfg.LeaseJitter * b.rng.Float64() * float64(d))
	}
	q.push(b.sim.Now().Add(d), n)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseAcquired, Job: h.ID, Site: name, N: n})
}

// unlease releases n of h's leases on a site (the job started or
// failed). Deferred unleases may run after the job's terminal event
// and after a site death dropped the whole queue; the trace checker
// accounts for both.
func (b *Broker) unlease(h *Handle, name string, n int) {
	if q := b.leases[name]; q != nil {
		q.drop(n)
	}
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseReleased, Job: h.ID, Site: name, N: n})
}

// admissionOK applies the fair-share rejection rule when resources are
// insufficient.
func (b *Broker) admissionOK(user string) bool {
	if b.cfg.Fair == nil || b.cfg.RejectAbove <= 0 {
		return true
	}
	return b.cfg.Fair.Priority(user) <= b.cfg.RejectAbove
}

// account registers a fair-share allocation for a started job.
func (b *Broker) account(h *Handle, cpus int) {
	if b.cfg.Fair == nil {
		return
	}
	job := h.request.Job
	class := fairshareClass(job)
	b.cfg.Fair.Allocate(h.ID, h.request.User, cpus, class, job.PerformanceLoss)
}

// release drops the fair-share allocation when the job ends.
func (b *Broker) release(h *Handle) {
	if b.cfg.Fair != nil {
		b.cfg.Fair.Release(h.ID)
	}
}

// kickDispatch schedules a broker-queue pass (batch jobs waiting for
// resources).
func (b *Broker) kickDispatch() {
	if b.dispatching || len(b.pendingBatch) == 0 {
		return
	}
	b.dispatching = true
	b.sim.AfterFunc(0, func() {
		b.dispatching = false
		b.dispatchPending()
	})
}

// dispatchPending retries queued batch jobs, best fair-share priority
// first. Priorities are snapshotted before sorting: fair-share
// priorities decay over time, and calling Priority inside the
// comparator lets a mid-sort decay produce inconsistent comparisons
// (a strict-weak-ordering violation sort.SliceStable may answer with
// an arbitrary permutation).
func (b *Broker) dispatchPending() {
	if len(b.pendingBatch) == 0 {
		return
	}
	queue := b.pendingBatch
	b.pendingBatch = nil
	if b.cfg.Fair != nil {
		prio := make([]float64, len(queue))
		for i, h := range queue {
			prio[i] = b.cfg.Fair.Priority(h.request.User)
		}
		order := make([]int, len(queue))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return prio[order[i]] < prio[order[j]] })
		sorted := make([]*Handle, len(queue))
		for i, k := range order {
			sorted[i] = queue[k]
		}
		queue = sorted
	}
	for _, h := range queue {
		h := h
		if h.state == Done || h.state == Failed {
			continue
		}
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			continue
		}
		b.sim.Post(func() { b.runBatch(h) })
	}
}

// scheduleRetry re-queues a batch job with capped exponential backoff
// (plus seeded jitter), or aborts it terminally once the resubmission
// budget is spent. With the default RetryBackoff of 1 the pacing is
// the fixed RetryInterval of the original design.
func (b *Broker) scheduleRetry(h *Handle) {
	if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
		b.failResubmits(h)
		return
	}
	// Queue-pressure offload: before parking the job, let the
	// federation ship it to a less-loaded peer. A true return means a
	// peer owns the job now (or a transfer is in flight that will
	// Requeue it here if undeliverable).
	if b.offloader != nil && b.offloader(h) {
		return
	}
	d := b.retryDelay(h.backoffs)
	h.backoffs++
	b.pendingBatch = append(b.pendingBatch, h)
	b.sim.AfterFunc(d, b.kickDispatch)
}

// retryDelay computes the dispatch delay for a job's n-th re-queue:
// RetryInterval × RetryBackoff^n, capped at RetryMaxInterval, plus a
// seeded jitter fraction.
func (b *Broker) retryDelay(n int) time.Duration {
	d := b.cfg.RetryInterval
	for i := 0; i < n && d < b.cfg.RetryMaxInterval; i++ {
		d = time.Duration(float64(d) * b.cfg.RetryBackoff)
	}
	if d > b.cfg.RetryMaxInterval {
		d = b.cfg.RetryMaxInterval
	}
	if b.cfg.RetryJitter > 0 {
		d += time.Duration(b.cfg.RetryJitter * b.rng.Float64() * float64(d))
	}
	return d
}

// waitTrigger waits for t up to d; cont receives whether t fired
// before the deadline.
func (b *Broker) waitTrigger(t *simclock.Trigger, d time.Duration, cont func(fired bool)) {
	w := b.sim.NewTrigger()
	timer := b.sim.AfterFunc(d, w.Fire)
	t.OnFire(w.Fire)
	w.WaitThen(func() {
		timer.Stop()
		cont(t.Fired())
	})
}
