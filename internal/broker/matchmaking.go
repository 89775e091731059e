package broker

import (
	"cmp"
	"slices"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// candidate is one matched site with fresh state, as a pass hands it
// to the flow that asked, best first (rankOrder). It carries the site's
// registry entry, so the flow reaches the site, its breaker and its
// leases without a lookup by name.
type candidate struct {
	e      *siteEntry
	free   int // effective free CPUs (after leases)
	queued int
	rank   float64
	noise  float64 // randomized tie-break
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
// keep-K stage through the direct state probe to the final order: e is
// the site's registry entry and ord a copy of its ordinal, so every
// comparison and the sorts read the task alone; vals is the record's
// published flat attribute vector laid out against schema — shared
// with the snapshot it came from, never written — free and queued are
// filled by the probe; rank, noise and ord order the tasks.
type probeTask struct {
	e            *siteEntry
	schema       *infosys.Schema
	vals         []any
	free, queued int
	ok           bool  // direct probe answered (site reachable)
	ord          int32 // e.ord when the task was kept
	// rank is the site's rank on its published state through the
	// keep-K stage, and on its probed state once rankProbed re-ranks it.
	rank  float64
	noise float64 // seeded tie-break
}

// rankOrder orders tasks best first: rank descending, then the seeded
// tie-break noise, then site name (the ordinals), so the order is
// total.
func rankOrder(a, b *probeTask) int {
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
	return cmp.Compare(a.ord, b.ord)
}

// outrankedBy reports whether a record of preliminary rank prelim,
// tie-break noise and site ordinal ord ranks ahead of the kept task p
// in rankOrder. The keep-K stage asks it before it builds a task, so a
// record that would not enter the heap costs no task.
func (p *probeTask) outrankedBy(prelim, noise float64, ord int32) bool {
	if prelim != p.rank {
		return prelim > p.rank
	}
	if noise != p.noise {
		return noise < p.noise
	}
	return ord < p.ord
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
// held (heap), so the pass keeps O(page size + K) state no matter how
// many sites match; with TopK <= 0 every match is kept. Survivors are
// probed and re-ranked on fresh state by finishSelection.
//
// The pass in flight is a pass record from the broker's free list,
// whose continuations were bound when the record was made.
func (b *Broker) matchPass(h *Handle, cont func([]candidate)) {
	if b.matchOracle != nil {
		b.matchOracle(h, cont)
		return
	}
	h.state = Matching

	var m *pass
	if n := len(b.passes); n > 0 {
		m = b.passes[n-1]
		b.passes = b.passes[:n-1]
	} else {
		m = &pass{b: b}
		m.discovered, m.polled, m.answer = m.discover, m.pinned, m.answered
		if k := b.cfg.TopK; k > 0 {
			// A bounded pass keeps at most K: its kept set is sized once.
			m.tasks, m.order = make([]probeTask, 0, k), make([]int32, 0, k)
		}
	}
	m.h, m.cont, m.dstart = h, cont, b.sim.Now()
	if b.sub == nil {
		b.sim.AfterFunc(b.cfg.Info.QueryLatency(), m.discovered)
		return
	}
	h.polledAt = m.dstart
	h.deltas, h.repins = 0, 0
	b.sub.poll(h, m.polled)
}

// pass is one matchmaking pass in flight: the handle it selects for,
// its continuation, its phase starts and its kept set. tasks holds the
// kept sites and order their indices in tasks: a min-heap during the
// scan, the probe order from finishSelection on, which the probes walk
// (next is the position being probed). Both keep their capacity while
// the record waits on the broker's free list, so a pass builds its
// kept set in the slots the last one left; a free list, not one
// scratch set, because probing spends simulated time and several
// passes can be in flight. discovered, polled and answer (m.discover,
// m.pinned and m.answered) are bound once per record.
type pass struct {
	b              *Broker
	h              *Handle
	cont           func([]candidate)
	dstart, sstart time.Time
	tasks          []probeTask
	order          []int32
	next           int

	discovered, polled func()
	answer             func(free, queued int, ok bool)
}

// discover is the discovery query's answer: a cursor over the index as
// it stands now.
func (m *pass) discover() {
	m.selectFrom(m.b.cfg.Info.DiscoverImmediate(m.b.cfg.pageSize))
}

// pinned is the delta poll's answer: a cursor over the shard snapshots
// it caught up to.
func (m *pass) pinned() {
	b := m.b
	m.h.matchEpoch = b.sub.applied
	m.selectFrom(infosys.PinnedCursor(b.sub.pins, b.cfg.pageSize))
}

// selectFrom runs once the read has landed: the scan keeps the best
// records, and finishSelection probes them.
func (m *pass) selectFrom(cur *infosys.Cursor) {
	b, h := m.b, m.h
	h.Phases.Discovery = b.sim.Since(m.dstart)

	m.sstart = b.sim.Now()
	h.unavailable, h.scanned, h.peak = 0, 0, 0
	b.ordinals()
	s := passScan{b: b, h: h, now: m.sstart, nonce: b.rng.Uint64(), tasks: m.tasks[:0], heap: m.order[:0]}
	for page, ok := cur.Next(); ok; page, ok = cur.Next() {
		s.page(page)
	}
	m.tasks, m.order = s.tasks, s.heap
	b.finishSelection(m)
}

// rank ranks the probed sites and ends the pass. The record goes back
// to the free list before cont runs, since cont may start a pass.
func (m *pass) rank() {
	b, h, cont := m.b, m.h, m.cont
	cands := b.rankProbed(h, m.tasks, m.order)
	clear(m.tasks) // drop entry and attribute-vector pointers
	h.Phases.Selection += b.sim.Since(m.sstart)
	m.h, m.cont = nil, nil
	m.tasks, m.order = m.tasks[:0], m.order[:0]
	b.passes = append(b.passes, m)
	cont(cands)
}

// passScan is one pass's synchronous stretch from registry read to
// kept set: the pass-wide inputs of the per-record stage, the page
// being scanned and the kept set the stage fills. Pure computation, no
// virtual time passes inside it — the read's latency and the probes
// happen outside.
//
// The kept set is the pass's slots (tasks) and their indices (heap).
// With TopK > 0 heap is a bounded min-heap whose root indexes the worst
// kept task, so a better newcomer overwrites the root's slot and the
// heap sifts 4-byte indices, not 80-byte tasks; without a bound every
// match is appended and heap is left in arrival order.
type passScan struct {
	b     *Broker
	h     *Handle
	now   time.Time
	nonce uint64
	tasks []probeTask
	heap  []int32

	sc        *infosys.Schema // the current page's schema
	req, rank *jdl.Compiled   // the job's predicates compiled against sc
}

// worse reports whether the task at heap position i ranks behind the
// one at position j.
func (s *passScan) worse(i, j int) bool {
	a, c := &s.tasks[s.heap[i]], &s.tasks[s.heap[j]]
	return a.outrankedBy(c.rank, c.noise, c.ord)
}

// up restores the heap order after an index was appended at i.
func (s *passScan) up(i int) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !s.worse(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down restores the heap order after the task indexed at i was
// replaced.
func (s *passScan) down(i int) {
	h := s.heap
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && s.worse(r, j) {
			j = r
		}
		if !s.worse(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// page is the per-page entry of the per-record stage, the one the
// pipeline calls for every page its cursor returns. Everything a page
// shares is resolved once: the schema, the job's predicates compiled
// against it (a pointer comparison in steady state) and the admission
// cache's slots for the page's row positions.
func (s *passScan) page(p infosys.Page) {
	s.sc = p.Snapshot().Schema()
	s.req, s.rank = s.h.request.Job.CompiledPredicates(s.sc, &s.b.classes)
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
	var root *probeTask
	full := topk > 0 && len(s.heap) == topk
	if full {
		root = &s.tasks[s.heap[0]]
		// Below the worst kept rank a record loses on rank alone, before
		// its noise is hashed.
		if prelim < root.rank {
			return
		}
	}
	var noise float64
	if !b.cfg.Deterministic {
		noise = noiseFrom(e.nameHash, s.nonce)
	}
	if full && !root.outrankedBy(prelim, noise, e.ord) {
		return
	}
	t := probeTask{e: e, schema: s.sc, vals: vals, ord: e.ord, rank: prelim, noise: noise}
	switch {
	case full:
		*root = t
		s.down(0)
	case topk > 0:
		s.heap = append(s.heap, int32(len(s.tasks)))
		s.tasks = append(s.tasks, t)
		s.up(len(s.heap) - 1)
	default:
		s.heap = append(s.heap, int32(len(s.tasks)))
		s.tasks = append(s.tasks, t)
	}
	if len(s.heap) > h.peak {
		h.peak = len(s.heap)
	}
}

// finishSelection contacts each kept site directly, one after another,
// for up-to-date queue state, applies leases, ranks the survivors on
// the fresh state (job Rank expression or free CPUs), and orders
// candidates best first with the seeded tie-break. A candidate whose
// Rank evaluation errors is excluded, exactly like a failing
// Requirements evaluation.
func (b *Broker) finishSelection(m *pass) {
	// Probe in site-name order no matter how the scan enumerated its
	// matches (shard-major pages over any shard count, top-K heap):
	// probes spend simulated time, so a stable order keeps lease
	// expiries and concurrent passes interleaving identically across
	// registry reads. The tasks carry their sites' ordinals, so the
	// sort compares integers in the slots.
	tasks := m.tasks
	slices.SortFunc(m.order, func(i, j int32) int { return cmp.Compare(tasks[i].ord, tasks[j].ord) })
	// Scan and finishSelection run in one event, so the probe-back
	// claims land before any concurrent pass can filter.
	for _, i := range m.order {
		b.claimHalfOpen(tasks[i].e)
	}
	// "Information may not be completely accurate ... CrossBroker
	// contacts each remote site individually and gets the most updated
	// information about the state of their local queues."
	if len(m.order) == 0 {
		m.rank()
		return
	}
	m.next = 0
	m.probe()
}

// probe asks the site at position next of the probe order for its
// queue state, through the site's direct QueryStateAsync; answered
// takes the answer. Sites are contacted one after another, the paper's
// behavior: selection costs the sum of site round trips, ~3 s for 20
// sites in Table I.
func (m *pass) probe() {
	m.tasks[m.order[m.next]].e.st.QueryStateAsync(m.answer)
}

// answered records the probed site's outcome, subtracting the broker's
// active leases from its free CPUs as the answer arrives (so concurrent
// matchmaking passes see each other's reservations), and probes the
// next site; after the last it ranks the pass.
func (m *pass) answered(free, queued int, ok bool) {
	b, t := m.b, &m.tasks[m.order[m.next]]
	t.ok = ok
	if ok {
		b.noteProbeAnswered(t.e)
		free -= b.activeLeases(t.e)
		if free < 0 {
			free = 0
		}
		t.free, t.queued = free, queued
	} else {
		b.noteSiteFailure(t.e.st.Name())
	}
	m.next++
	if m.next < len(m.order) {
		m.probe()
		return
	}
	m.rank()
}

// rankProbed is the pure post-probe half of finishSelection: apply
// probe outcomes, re-rank survivors on fresh state, order best first.
// It walks tasks in the probe order, keeps the survivors' indices in
// its place, and sorts those: the sort moves 4-byte indices and
// compares ordinals in the tasks.
func (b *Broker) rankProbed(h *Handle, tasks []probeTask, order []int32) []candidate {
	job := h.request.Job
	kept := order[:0]
	for _, i := range order {
		p := &tasks[i]
		if !p.ok {
			// The direct probe went unanswered: the record is stale,
			// the site is down or cut off. Exclude it this pass.
			h.unavailable++
			continue
		}
		// The staging penalty is recomputed here (not carried from the
		// pass) so the final rank derives from the same inputs whichever
		// source kept the task; unobtainable sites were already excluded
		// pre-probe.
		pen, _ := b.dataPenalty(job, p.e.st.Name())
		_, rank := job.CompiledPredicates(p.schema, &b.classes)
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
			p.rank = r - pen
		} else {
			p.rank = float64(p.free) - pen
		}
		kept = append(kept, i)
	}
	// Best rank first; equal ranks in seeded-noise order (the paper's
	// randomized selection "to generate different answers when there
	// are multiple resource choices"); in Deterministic mode all noise
	// is zero and ties resolve by site name.
	slices.SortFunc(kept, func(i, j int32) int { return rankOrder(&tasks[i], &tasks[j]) })
	cands := make([]candidate, len(kept))
	for k, i := range kept {
		p := &tasks[i]
		cands[k] = candidate{e: p.e, free: p.free, queued: p.queued, rank: p.rank, noise: p.noise}
	}
	return cands
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

// activeLeases counts a site's unexpired leases, pruning expired
// ones.
func (b *Broker) activeLeases(e *siteEntry) int {
	return e.leases.prune(b.sim.Now())
}

// lease reserves n CPUs on a site for the exclusive-temporal-access
// window on behalf of h's current attempt. With LeaseJitter set the
// window is stretched by a seeded random fraction, so two federated
// brokers whose leases were acquired in the same tick expire — and
// re-probe the grid — at different instants.
func (b *Broker) lease(h *Handle, e *siteEntry, n int) {
	d := b.cfg.LeaseDuration
	if b.cfg.LeaseJitter > 0 {
		d += time.Duration(b.cfg.LeaseJitter * b.rng.Float64() * float64(d))
	}
	e.leases.push(h, b.sim.Now().Add(d), n)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseAcquired, Job: h.ID, Site: e.st.Name(), N: n})
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
// resources) in an event of its own at the current instant.
func (b *Broker) kickDispatch() {
	if b.dispatching || len(b.pendingBatch) == 0 {
		return
	}
	b.dispatching = true
	b.sim.AfterFunc(0, b.dispatchNow)
}

// dispatchKicked is the broker-queue pass kickDispatch scheduled.
func (b *Broker) dispatchKicked() {
	b.dispatching = false
	b.dispatchPending()
}

// dispatchPending retries queued batch jobs, best fair-share priority
// first, each in an event of its own. Priorities are snapshotted before
// sorting: fair-share priorities decay over time, and calling Priority
// inside the comparator lets a mid-sort decay produce inconsistent
// comparisons (a strict-weak-ordering violation slices.SortStableFunc
// may answer with an arbitrary permutation). The queue's two buffers
// take turns: the drained one is kept for the next re-queues.
func (b *Broker) dispatchPending() {
	if len(b.pendingBatch) == 0 {
		return
	}
	drained := b.pendingBatch
	b.pendingBatch = b.drained
	queue := drained
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
		if h.state.Terminal() {
			continue
		}
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			continue
		}
		b.retrying.push(h)
		b.sim.Post(b.retryNext)
	}
	clear(drained)
	b.drained = drained[:0]
}

// retryOldest runs the oldest job dispatchPending posted.
func (b *Broker) retryOldest() { b.runBatch(b.retrying.pop()) }

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
	b.sim.AfterFunc(d, b.kick)
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
