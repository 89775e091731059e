package broker

import (
	"cmp"
	"slices"
	"strings"
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

// candOrder orders candidates best first: rank descending, then the
// seeded tie-break noise, then site name so the order is total.
func candOrder(a, b candidate) int {
	if a.rank != b.rank {
		if a.rank > b.rank {
			return -1
		}
		return 1
	}
	if a.noise != b.noise {
		if a.noise < b.noise {
			return -1
		}
		return 1
	}
	return strings.Compare(a.site.Name(), b.site.Name())
}

// A candidate's tie-break noise in [0, 1) is the FNV-1a hash of the
// site name followed by the pass nonce's eight bytes. Hashing instead
// of drawing per candidate makes the noise — and with it the selection
// outcome — independent of enumeration order, so scans of the same
// records in shard-major page order pick identical sites for the same
// seed whatever the shard count. FNV-1a is sequential, so the name's
// part is hashed once, at registration (nameHash), and each pass only
// folds in its nonce (noiseFrom).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// nameHash is the FNV-1a state after a site name.
func nameHash(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// noiseFrom folds a pass nonce into a site's nameHash and maps the
// result onto [0, 1).
func noiseFrom(h, nonce uint64) float64 {
	for i := 0; i < 8; i++ {
		h ^= (nonce >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return float64(h>>11) / (1 << 53)
}

// The match pipeline. Every matchmaking pass is the same stages:
//
//	registry read → cursor → per record: admit → evaluate → keep-K → finishSelection
//
// The registry read is the pass's one fork, and it only decides which
// cursor the pass pages. By default the broker queries the registry:
// one discovery round trip, then a cursor that pins each shard as it
// reaches it. A broker whose index serves subscriptions
// (incremental.go) polls each shard for what changed since its last
// pass, so discovery costs wire proportional to churn, and pages the
// shard snapshots the poll caught it up to. Either way the pass then
// visits every record the cursor returns through the one per-record
// stage (passScan.record), so for the same registry, seed and breaker
// state the two reads produce the same ordered candidates;
// oracle_test.go checks both against a naive whole-snapshot reference.

// probeTask carries one admitted, requirement-matched site from the
// keep-K stage through the direct state probe: vals is the record's
// published flat attribute vector laid out against schema — shared
// with the snapshot it came from, never written — free and queued are
// filled by probeSites, prelim and noise order the keep-K stage.
type probeTask struct {
	st           *site.Site
	schema       *infosys.Schema
	vals         []any
	free, queued int
	ok           bool    // direct probe answered (site reachable)
	prelim       float64 // published-state rank (keep-K ordering)
	noise        float64 // seeded tie-break, shared with the final order
}

// outrankedBy reports whether a record of preliminary rank prelim,
// tie-break noise and site name ranks ahead of the kept task p: rank
// descending, then noise, then site name — the same total order
// candOrder applies after probing. The keep-K stage asks it before it
// builds a task, so a record that would not enter the heap costs no
// task.
func (p *probeTask) outrankedBy(prelim, noise float64, name string) bool {
	if prelim != p.prelim {
		return prelim > p.prelim
	}
	if noise != p.noise {
		return noise < p.noise
	}
	return name < p.st.Name()
}

// topkHeap is a bounded min-heap of the best K candidates seen so far:
// the root is the worst kept entry, so a better newcomer replaces it
// in O(log K).
type topkHeap []probeTask

// worse reports whether kept task i ranks behind kept task j.
func (h topkHeap) worse(i, j int) bool {
	return h[i].outrankedBy(h[j].prelim, h[j].noise, h[j].st.Name())
}

// up restores the heap order after a task was appended at i.
func (h topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down restores the heap order after the task at i was replaced.
func (h topkHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.worse(r, j) {
			j = r
		}
		if !h.worse(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// admit is the pipeline's admission stage: it resolves one enumerated
// record to its registered site's entry, or rejects it. A record for a
// site not registered here is skipped silently (nil); a site whose
// circuit breaker excludes it is skipped and reported unavailable. c
// is the admission cache's slot for the record's row position (see
// Broker.admitted): it holds the name last read there and its entry,
// so the registry lookup runs only when another name moved into the
// position. One resolution gives the site, its breaker and its name
// hash together, and now is read once per pass: no virtual time
// passes inside the synchronous source→keep-K stretch.
func (b *Broker) admit(c *admitSlot, name string, now time.Time) (e *siteEntry, unavailable bool) {
	if c.name != name {
		*c = admitSlot{name: name, e: b.sites[name]}
	}
	e = c.e
	if e == nil {
		return nil, false
	}
	if breakerOpen(&e.health, now) {
		return nil, true
	}
	return e, false
}

// evaluate is the pipeline's evaluation stage, the one place a job's
// predicates meet a published record: Requirements, then whether the
// job's InputData can reach the site at all, then the preliminary rank
// on published state (the job's Rank expression or free CPUs, minus
// the staging penalty). req and rank are the job's predicates compiled
// against the record's page schema; name, freeCPUs and vals are the
// record's: vals its flat vector laid out against that schema, which
// compiled predicates only read, so it is evaluated in place, shared.
// A failing or erroring Requirements clause and an unobtainable
// dataset both fail the site; a Rank evaluation error passes it with
// rankErr set, for the keep-K stage to drop (bounded pass) or
// finishSelection to exclude after probing (unbounded pass).
func (b *Broker) evaluate(job *jdl.Job, req, rank *jdl.Compiled, vals []any, name string, freeCPUs int) (pass bool, prelim float64, rankErr bool) {
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

// matchPass runs one discovery+selection attempt for h and hands the
// ordered candidates to cont. It forks once, on how this broker reads
// the registry (a poll of the delta subscription, or a discovery
// query); both end in a cursor, and every step after it exists once.
// With TopK > 0 only the K best candidates by published-state rank are
// held (heap), so the pass keeps O(PageSize + K) state no matter how
// many sites match; with TopK <= 0 every match is kept. Survivors are
// probed and re-ranked on fresh state by finishSelection.
func (b *Broker) matchPass(h *Handle, cont func([]candidate)) {
	if b.matchOracle != nil {
		b.matchOracle(h, cont)
		return
	}
	h.state = Matching

	dstart := b.sim.Now()
	// selectFrom runs once the read has landed.
	selectFrom := func(cur *infosys.Cursor) {
		h.Phases.Discovery = b.sim.Since(dstart)

		sstart := b.sim.Now()
		h.unavailable, h.scanned, h.peak = 0, 0, 0
		s := passScan{b: b, h: h, now: sstart, nonce: b.rng.Uint64(), keep: b.getTasks()}
		for page, ok := cur.Next(); ok; page, ok = cur.Next() {
			s.page(page)
		}
		kept := []probeTask(s.keep)
		b.finishSelection(h, kept, func(cands []candidate) {
			b.putTasks(kept)
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	}
	if b.sub == nil {
		info := b.cfg.Info
		b.sim.AfterFunc(info.QueryLatency(), func() { selectFrom(info.DiscoverImmediate(b.cfg.PageSize)) })
		return
	}
	h.polledAt = dstart
	h.deltas, h.repins = 0, 0
	b.sub.poll(h, func() {
		h.matchEpoch = b.sub.applied
		selectFrom(infosys.PinnedCursor(b.sub.pins, b.cfg.PageSize))
	})
}

// passScan is one pass's synchronous stretch from registry read to
// kept set: the pass-wide inputs of the per-record stage, the page
// being scanned and the bounded heap the stage fills. Pure
// computation, no virtual time passes inside it — the read's latency
// and the probes happen outside.
type passScan struct {
	b     *Broker
	h     *Handle
	now   time.Time
	nonce uint64
	keep  topkHeap

	sc        *infosys.Schema // the current page's schema
	req, rank *jdl.Compiled   // the job's predicates compiled against sc
}

// page is the per-page entry of the per-record stage, the one the
// pipeline calls for every page its cursor returns. Everything a page
// shares is resolved once: the schema, the job's predicates compiled
// against it (a pointer comparison in steady state) and the admission
// cache's slots for the page's row positions.
func (s *passScan) page(p infosys.Page) {
	s.sc = p.Snapshot().Schema()
	s.req, s.rank = s.h.request.Job.CompiledPredicates(s.sc)
	lo, n := p.Index(0), p.Len()
	row := s.b.admitRow(p.Shard(), lo+n)[lo:]
	for i := 0; i < n; i++ {
		s.record(&row[i], p.Name(i), p.Values(i), p.FreeCPUs(i))
	}
}

// record is the per-record stage, run for every record the registry
// read's cursor returned: count it, admit, evaluate, and keep it if it
// is among the K best so far, deciding that before a task is built.
// The pass visits every published record, so this is what large grids
// pay for. The kept set and the counters do not depend on the order
// records arrive in (outrankedBy is a total order and the noise is
// hashed from the name), so the shard-major page order may vary with
// the shard count.
func (s *passScan) record(c *admitSlot, name string, vals []any, freeCPUs int) {
	b, h, topk := s.b, s.h, s.b.cfg.TopK
	h.scanned++
	e, unavailable := b.admit(c, name, s.now)
	if unavailable {
		h.unavailable++
	}
	if e == nil {
		return
	}
	pass, prelim, rankErr := b.evaluate(h.request.Job, s.req, s.rank, vals, name, freeCPUs)
	if !pass || (rankErr && topk > 0) {
		return
	}
	var noise float64
	if !b.cfg.Deterministic {
		noise = noiseFrom(e.nameHash, s.nonce)
	}
	full := topk > 0 && len(s.keep) == topk
	if full && !s.keep[0].outrankedBy(prelim, noise, name) {
		return
	}
	p := probeTask{st: e.st, schema: s.sc, vals: vals, prelim: prelim, noise: noise}
	switch {
	case full:
		s.keep[0] = p
		s.keep.down(0)
	case topk > 0:
		s.keep = append(s.keep, p)
		s.keep.up(len(s.keep) - 1)
	default:
		s.keep = append(s.keep, p)
	}
	if len(s.keep) > h.peak {
		h.peak = len(s.keep)
	}
}

// finishSelection contacts each kept site directly, one after another,
// for up-to-date queue state, applies leases, ranks the survivors on
// the fresh state (job Rank expression or free CPUs), and orders
// candidates best first with the seeded tie-break. A candidate whose
// Rank evaluation errors is excluded, exactly like a failing
// Requirements evaluation.
func (b *Broker) finishSelection(h *Handle, kept []probeTask, cont func([]candidate)) {
	// Probe in site-name order no matter how the scan enumerated its
	// matches (shard-major pages over any shard count, top-K heap):
	// probes spend simulated time, so a stable order keeps lease
	// expiries and concurrent passes interleaving identically across
	// registry reads.
	slices.SortFunc(kept, func(a, b probeTask) int { return strings.Compare(a.st.Name(), b.st.Name()) })
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
	slices.SortFunc(cands, candOrder)
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
// other's reservations). Sites are contacted one after another, the
// paper's behavior: selection costs the sum of site round trips, ~3 s
// for 20 sites in Table I.
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
	// deltas and the shard snapshot re-pins (gap fallbacks) the deciding
	// poll was answered with; zero on the discovery path.
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
	b.matchPass(h, func(cands []candidate) {
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

// leaseEntry is a batch of one job's leases sharing one expiry
// instant.
type leaseEntry struct {
	exp   time.Time
	n     int
	owner *Handle
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

// push adds n leases of owner expiring at exp, merging with the newest
// batch when owner and expiry match.
func (q *leaseQueue) push(owner *Handle, exp time.Time, n int) {
	q.count += n
	if last := len(q.entries) - 1; last >= q.head && q.entries[last].owner == owner && q.entries[last].exp.Equal(exp) {
		q.entries[last].n += n
		return
	}
	q.entries = append(q.entries, leaseEntry{exp: exp, n: n, owner: owner})
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

// drop releases up to n of owner's live leases, newest first (the job
// started or failed, so its reservation is undone). Other jobs' leases
// stay, and so does an expired lease of owner's: it reserves nothing
// any more, and the next prune pops it. The scan starts at the newest
// batch, which is the releasing job's in the common case, and stops at
// the first expired one, since batches are sorted by expiry.
func (q *leaseQueue) drop(owner *Handle, now time.Time, n int) {
	for i := len(q.entries) - 1; n > 0 && i >= q.head && q.entries[i].exp.After(now); i-- {
		if e := &q.entries[i]; e.owner == owner {
			k := min(n, e.n)
			e.n -= k
			q.count -= k
			n -= k
		}
	}
	// Emptied batches at the tail go at once; one further in stays, with
	// no leases, until it expires.
	for last := len(q.entries) - 1; last >= q.head && q.entries[last].n == 0; last-- {
		q.entries[last] = leaseEntry{}
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
	return b.sites[name].leases.prune(b.sim.Now())
}

// lease reserves n CPUs on a site for the exclusive-temporal-access
// window on behalf of h's current attempt. With LeaseJitter set the
// window is stretched by a seeded random fraction, so two federated
// brokers whose leases were acquired in the same tick expire — and
// re-probe the grid — at different instants.
func (b *Broker) lease(h *Handle, name string, n int) {
	d := b.cfg.LeaseDuration
	if b.cfg.LeaseJitter > 0 {
		d += time.Duration(b.cfg.LeaseJitter * b.rng.Float64() * float64(d))
	}
	b.sites[name].leases.push(h, b.sim.Now().Add(d), n)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseAcquired, Job: h.ID, Site: name, N: n})
}

// unlease releases n of h's leases on a site (the job started or
// failed); another job's lease is never touched, and an expired one of
// h's leaves nothing to release. Deferred unleases may run after the
// job's terminal event and after a site death dropped the whole queue;
// the trace checker accounts for both.
func (b *Broker) unlease(h *Handle, name string, n int) {
	b.sites[name].leases.drop(h, b.sim.Now(), n)
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
// (a strict-weak-ordering violation slices.SortStableFunc may answer with
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
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(prio[a], prio[b]) })
		sorted := make([]*Handle, len(queue))
		for i, k := range order {
			sorted[i] = queue[k]
		}
		queue = sorted
	}
	for _, h := range queue {
		h := h
		if h.state.Terminal() {
			continue
		}
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			continue
		}
		b.sim.Post(func() { b.runBatch(h) })
	}
}

// scheduleRetry holds a batch job Pending in the broker queue with
// capped exponential backoff, or fails it terminally once the
// resubmission budget is spent. With the default RetryBackoff of 1 the
// pacing is the fixed RetryInterval of the original design.
func (b *Broker) scheduleRetry(h *Handle) {
	h.state = Pending
	if b.resubmitsSpent(h) {
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
// RetryInterval × RetryBackoff^n, capped at RetryMaxInterval.
func (b *Broker) retryDelay(n int) time.Duration {
	d := b.cfg.RetryInterval
	for i := 0; i < n && d < b.cfg.RetryMaxInterval; i++ {
		d = time.Duration(float64(d) * b.cfg.RetryBackoff)
	}
	if d > b.cfg.RetryMaxInterval {
		d = b.cfg.RetryMaxInterval
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
