// Package infosys simulates the Globus MDS-based information system
// the CrossBroker queries during resource discovery (Section 3 and
// 6.1): a registry of site records that is updated periodically by the
// sites and answered with a configurable query latency.
//
// Two properties of the real system matter to the experiments and are
// modeled here:
//
//   - Query latency. The paper's information index lived in Germany
//     while the broker ran in Spain; discovery took ~0.5 s dominated by
//     that WAN round trip.
//   - Staleness. Records reflect each site's last push, so the broker
//     must re-contact sites directly for up-to-date queue state during
//     the selection phase (which is why selection costs ~3 s for 20
//     sites in Table I).
//
// Discovery is the first step of the latency-critical selection path
// ("the user is waiting"), so queries are served from immutable,
// epoch-versioned snapshots: Publish and Remove bump the epoch, and a
// snapshot is cut at most once per epoch no matter how many brokers
// query it. Snapshots also carry each record's matchmaking attributes
// as a flat value slice keyed by a shared Schema, which is what the
// compiled JDL predicates (package jdl) index into, in place; a probe's
// fresh queue state is overlaid on a pooled copy (MatchAttrs).
//
// The periodic refresh is the registry's main load (every site
// republishes on a timer, and a site's attributes never change, only
// its timestamp and queue state), so the registry is repaired, not
// rebuilt. Each shard keeps a standing store of immutable rows (record
// plus flat vector); a publish stores one new row, reusing what did
// not change of the old one, and a snapshot wraps the standing rows. A
// registered site refreshes through PublishQueueState, which carries
// the stored attributes over without looking at them; Publish, which
// compares attribute content, serves first pushes and outside
// publishers.
//
// To scale past a monolithic index the registry is hash-sharded
// (NewSharded): each shard keeps its own rows, epoch and snapshot, so
// a publish invalidates only one shard's snapshot, while every shard
// is laid out against one service-wide Schema so compiled predicates
// stay cached across the whole grid. Brokers that cannot afford one
// flat snapshot of every site iterate the registry page by page
// through Discover (discover.go); the merged whole-grid Snapshot
// remains available for instrumentation, partition freezes and the
// broker's test oracle.
//
// The index lives in virtual time only. A Service belongs to one
// simclock.Sim, and every publish, query and configuration call runs
// on the goroutine driving it, so the registry holds no lock: a
// traversal or a subscriber sees other writes only between its own
// calls (DESIGN.md §3k).
package infosys

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// SiteRecord describes one grid site as published to the information
// system. Attrs carries matchmaking attributes (Arch, OS, MemoryMB,
// ...); the remaining fields mirror the queue state at publish time.
type SiteRecord struct {
	// Name is the site's unique name.
	Name string
	// Gatekeeper is the address of the site's gatekeeper service.
	Gatekeeper string
	// Attrs holds the static matchmaking attributes.
	Attrs map[string]any
	// TotalCPUs and FreeCPUs describe capacity at publish time.
	TotalCPUs, FreeCPUs int
	// QueuedJobs is the local queue length at publish time.
	QueuedJobs int
	// UpdatedAt is the publish time of this record.
	UpdatedAt time.Time
}

// Clone returns a deep copy so callers cannot mutate registry state.
func (r SiteRecord) Clone() SiteRecord {
	attrs := make(map[string]any, len(r.Attrs))
	for k, v := range r.Attrs {
		attrs[k] = v
	}
	r.Attrs = attrs
	return r
}

// The dynamic attribute names present in every schema.
const (
	AttrTotalCPUs  = "TotalCPUs"
	AttrFreeCPUs   = "FreeCPUs"
	AttrQueuedJobs = "QueuedJobs"
)

// Backend-shape attribute names sites publish among their static
// attributes (see batch.BackendInfo): the node-supply kind and its
// advertised worst-case node startup cost in seconds.
const (
	AttrBackend    = "Backend"
	AttrStartupSec = "StartupSec"
)

// Schema maps attribute names to offsets in the flat value slices of
// one snapshot generation. A schema is immutable once built; snapshot
// rebuilds reuse the previous schema pointer whenever the attribute
// name set is unchanged, so compiled predicates cached against it stay
// valid across epochs.
type Schema struct {
	names []string // canonical spellings, sorted
	// index resolves the lower-cased name and, so that the spelling
	// every publisher and compiled predicate uses needs no lowered
	// copy, the canonical one.
	index map[string]int
	// Offsets of the queue-state slots every schema carries.
	total, free, queued int
}

// newSchema builds a schema over the given attribute names plus the
// dynamic queue-state attributes. Names that collide case-insensitively
// collapse onto one offset (first spelling wins), matching the JDL
// evaluator's case-insensitive attribute lookup.
func newSchema(names []string) *Schema {
	sc := &Schema{index: make(map[string]int, 2*(len(names)+3))}
	add := func(name string) int {
		key := strings.ToLower(name)
		if off, dup := sc.index[key]; dup {
			return off
		}
		off := len(sc.names)
		sc.index[key], sc.index[name] = off, off
		sc.names = append(sc.names, name)
		return off
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		add(n)
	}
	sc.total = add(AttrTotalCPUs)
	sc.free = add(AttrFreeCPUs)
	sc.queued = add(AttrQueuedJobs)
	return sc
}

// Len reports the number of attribute slots.
func (sc *Schema) Len() int { return len(sc.names) }

// Offset resolves an attribute name, case-insensitively, to its slot.
// Canonical and lower-case spellings resolve without allocating.
func (sc *Schema) Offset(name string) (int, bool) {
	if i, ok := sc.index[name]; ok {
		return i, true
	}
	i, ok := sc.index[strings.ToLower(name)]
	return i, ok
}

// sameNames reports whether the schema covers exactly the given static
// name set (case-insensitively), i.e. whether it can be reused for a
// snapshot over those attributes.
func (sc *Schema) sameNames(lowered map[string]bool) bool {
	if len(sc.names) != len(lowered)+3 {
		return false
	}
	for k := range lowered {
		if _, ok := sc.index[k]; !ok {
			return false
		}
	}
	return true
}

// row is one site's record with its flat attribute vector. A row is
// immutable once a shard or a snapshot holds it: a republish stores a
// new row, so every snapshot cut before keeps reading the old one.
type row struct {
	rec  SiteRecord // Attrs private to the registry or the snapshot
	vals []any      // rec's attributes in the holder's schema order, normalized
}

// Snapshot is an immutable view of the registry at one epoch. All
// queries between two mutations share the same snapshot allocation;
// accessors that expose mutable data (Record, Records) return deep
// copies, so callers cannot reach published state through a snapshot.
type Snapshot struct {
	epoch  uint64
	schema *Schema
	rows   []*row // sorted by name, every vector laid out against schema
}

// newSnapshot builds a snapshot over recs (which must already be
// private clones), reusing prev's schema when the attribute name set
// is unchanged.
func newSnapshot(epoch uint64, recs []SiteRecord, prev *Snapshot) *Snapshot {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })

	lowered := make(map[string]bool)
	for _, r := range recs {
		for k := range r.Attrs {
			lowered[strings.ToLower(k)] = true
		}
	}
	delete(lowered, strings.ToLower(AttrTotalCPUs))
	delete(lowered, strings.ToLower(AttrFreeCPUs))
	delete(lowered, strings.ToLower(AttrQueuedJobs))

	var schema *Schema
	if prev != nil && prev.schema.sameNames(lowered) {
		schema = prev.schema
	} else {
		names := make([]string, 0, len(lowered))
		seen := make(map[string]bool, len(lowered))
		for _, r := range recs {
			for k := range r.Attrs {
				lk := strings.ToLower(k)
				if !seen[lk] && lk != "totalcpus" && lk != "freecpus" && lk != "queuedjobs" {
					seen[lk] = true
					names = append(names, k)
				}
			}
		}
		schema = newSchema(names)
	}

	return buildSnapshot(epoch, recs, schema)
}

// buildSnapshot lays recs — already private to the snapshot and sorted
// by name — out against the given schema.
func buildSnapshot(epoch uint64, recs []SiteRecord, schema *Schema) *Snapshot {
	return &Snapshot{epoch: epoch, schema: schema, rows: flatRows(recs, schema)}
}

// flatRows builds one row per record, flattened against schema.
func flatRows(recs []SiteRecord, schema *Schema) []*row {
	backing := make([]row, len(recs))
	rows := make([]*row, len(recs))
	for i, r := range recs {
		backing[i] = row{rec: r, vals: valsFor(r, schema)}
		rows[i] = &backing[i]
	}
	return rows
}

// valsFor flattens one record's attributes (static plus publish-time
// queue state) into a value slice in schema offset order.
func valsFor(r SiteRecord, schema *Schema) []any {
	v := make([]any, schema.Len())
	for k, raw := range r.Attrs {
		if off, ok := schema.Offset(k); ok {
			v[off] = normalizeAttr(raw)
		}
	}
	v[schema.total] = float64(r.TotalCPUs)
	v[schema.free] = float64(r.FreeCPUs)
	v[schema.queued] = float64(r.QueuedJobs)
	return v
}

// NewSnapshot builds a standalone snapshot from records, for tests and
// benchmarks. Records are cloned; prev (may be nil) allows schema
// reuse across rebuilds so compiled predicates stay cached.
func NewSnapshot(recs []SiteRecord, prev *Snapshot) *Snapshot {
	cloned := make([]SiteRecord, len(recs))
	for i, r := range recs {
		cloned[i] = r.Clone()
	}
	var epoch uint64
	if prev != nil {
		epoch = prev.epoch + 1
	}
	return newSnapshot(epoch, cloned, prev)
}

// normalizeAttr converts integer attribute values to float64 (the JDL
// evaluator's numeric type) so per-evaluation normalization and its
// boxing disappear from the hot path. Unsupported types are kept as
// published and fail at evaluation time, as before.
func normalizeAttr(v any) any {
	switch x := v.(type) {
	case string, bool, float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case uint:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return v
}

// Epoch identifies the registry generation this snapshot reflects.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Schema returns the attribute schema shared by every record of this
// snapshot. It satisfies jdl.Resolver for predicate compilation.
func (s *Snapshot) Schema() *Schema { return s.schema }

// Len reports the number of site records.
func (s *Snapshot) Len() int { return len(s.rows) }

// Name returns the name of record i without copying the record.
func (s *Snapshot) Name(i int) string { return s.rows[i].rec.Name }

// Records returns deep copies of all records, sorted by site name.
func (s *Snapshot) Records() []SiteRecord {
	out := make([]SiteRecord, len(s.rows))
	for i, r := range s.rows {
		out[i] = r.rec.Clone()
	}
	return out
}

// MatchAttrs is a reusable copy of one record's flat attribute vector
// (one value slot per schema offset), onto which a direct probe's fresh
// queue state is overlaid for Rank evaluation. Vectors are recycled
// through a sync.Pool; a Released vector must not be used again.
type MatchAttrs struct {
	schema *Schema
	vals   []any
}

var matchAttrsPool = sync.Pool{New: func() any { return &MatchAttrs{} }}

// Values exposes the flat value slice compiled predicates index into.
func (m *MatchAttrs) Values() []any { return m.vals }

// SetQueueState overlays fresh FreeCPUs and QueuedJobs, the two slots
// a direct probe refreshes, without resolving their names.
func (m *MatchAttrs) SetQueueState(freeCPUs, queuedJobs int) {
	m.vals[m.schema.free] = float64(freeCPUs)
	m.vals[m.schema.queued] = float64(queuedJobs)
}

// Release returns the vector to the pool.
func (m *MatchAttrs) Release() {
	m.schema = nil
	matchAttrsPool.Put(m)
}

// Service is the information index (the GIIS). Records are
// hash-sharded by site name: each shard keeps its own row store, epoch
// and snapshot, so a publish invalidates only one shard's snapshot,
// while the attribute Schema is shared service-wide so compiled JDL
// predicates stay cached across shards and epochs. New builds the
// classic single-shard (monolithic) index; NewSharded builds an
// N-shard one for thousands-of-sites grids paged through Discover.
type Service struct {
	sim          *simclock.Sim
	queryLatency time.Duration
	shards       []*shard

	epoch uint64 // global generation: one bump per effective mutation
	count int    // total records across all shards

	// Shared-schema bookkeeping: how many live records carry each
	// static attribute (lower-cased) and the canonical spelling to use
	// for it. schema is invalidated (nil) only when the attribute name
	// set changes, so its pointer — the compiled-predicate cache key —
	// survives ordinary republishes.
	attrCount map[string]int
	attrCanon map[string]string
	schema    *Schema

	// merged caches the whole-grid snapshot (every shard's snapshot
	// concatenated and re-sorted by name), valid while mergedEpoch
	// matches epoch.
	merged      *Snapshot
	mergedEpoch uint64

	// The partition switch: while cut, queries are answered from the
	// snapshots taken at partition start even though sites keep
	// publishing. Models a network partition between the brokers and the
	// index (or a wedged GIIS serving stale registrations).
	cutShards []*Snapshot // one per shard; non-nil exactly while cut
	cutWhole  *Snapshot

	// Delta subscription state (delta.go): per-shard log depth, the
	// modeled per-shard link, and the tracer DeltaPublished events go
	// to. tracer is set once at setup.
	deltaDepth int
	link       netsim.Profile
	hasLink    bool
	tracer     *trace.Tracer
}

// shard is one hash partition of the registry: a standing row store
// that Publish and Remove repair in place, so cutting a snapshot wraps
// the rows instead of re-deriving them.
type shard struct {
	rows  []*row         // one immutable row per site
	index map[string]int // site name -> position in rows
	// schema is what every row's vector is laid out against; nil while
	// rows stored before the first snapshot have none yet. A snapshot
	// asked for under another schema re-flattens the shard.
	schema *Schema
	// sorted says rows is in name order. An insert appends and a remove
	// swaps with the last row, so either may clear it; the next snapshot
	// sorts.
	sorted bool
	// shared says a snapshot holds rows' backing array, so the next
	// write copies the slice (8 bytes a row) first.
	shared bool
	epoch  uint64
	snap   *Snapshot // valid while snap.epoch == epoch and the schema matches
	log    *deltaLog // bounded mutation history; nil while disabled
}

// own makes rows writable: snapshots keep the array they were cut from.
func (sh *shard) own() {
	if sh.shared {
		sh.rows = slices.Clone(sh.rows)
		sh.shared = false
	}
}

// New creates an information service on sim whose queries cost
// queryLatency (one round trip from the broker to the index).
func New(sim *simclock.Sim, queryLatency time.Duration) *Service {
	return NewSharded(sim, queryLatency, 1)
}

// NewSharded creates an information service whose registry is split
// into the given number of hash shards (values < 1 mean one shard).
func NewSharded(sim *simclock.Sim, queryLatency time.Duration, shards int) *Service {
	if shards < 1 {
		shards = 1
	}
	s := &Service{
		sim:          sim,
		queryLatency: queryLatency,
		shards:       make([]*shard, shards),
		attrCount:    make(map[string]int),
		attrCanon:    make(map[string]string),
	}
	for i := range s.shards {
		s.shards[i] = &shard{index: make(map[string]int), sorted: true}
	}
	return s
}

// ShardCount reports how many hash shards the registry is split into.
func (s *Service) ShardCount() int { return len(s.shards) }

// shardIndexFor hashes a site name onto its shard index.
func (s *Service) shardIndexFor(name string) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// QueryLatency returns the configured per-query round-trip cost.
func (s *Service) QueryLatency() time.Duration { return s.queryLatency }

// Publish stores or replaces a site record, stamping it with the
// current time. A site pushes its full record this way when it has
// none in the index (push model, as GRIS to GIIS registration) and
// refreshes it through PublishQueueState. Each publish starts a new
// snapshot epoch on the record's shard (and a new global epoch).
//
// A publish pays for what changed since the site's last one, judged by
// the content of Attrs (a publisher may reuse, and mutate, the map it
// published before): unchanged attributes keep the stored private map
// and vector, changed values re-flatten this one row, and only a
// changed name set or a new site touches the shared schema's counts.
func (s *Service) Publish(rec SiteRecord) error {
	if rec.Name == "" {
		return fmt.Errorf("infosys: record without site name")
	}
	rec.UpdatedAt = s.sim.Now()
	si := s.shardIndexFor(rec.Name)
	sh := s.shards[si]
	at, replaced := sh.index[rec.Name]
	var old *row
	sameNames, sameValues := false, false
	if replaced {
		old = sh.rows[at]
		sameNames, sameValues = compareAttrs(old.rec.Attrs, rec.Attrs)
	}
	nr := &row{rec: rec}
	if sameValues {
		nr.rec.Attrs = old.rec.Attrs
		nr.vals = sh.schema.requeued(old, rec)
	} else {
		nr.rec = rec.Clone()
		if sh.schema != nil {
			nr.vals = valsFor(nr.rec, sh.schema)
		}
	}
	s.store(si, nr, old, at, sameNames)
	return nil
}

// PublishQueueState is a registered site's refresh: it republishes the
// site's stored record with new queue state, stamped with the current
// time, keeping Attrs and Gatekeeper as last published in full. A site
// owns its attributes and never changes them, so its periodic push has
// nothing to compare; only an outside publisher that may mutate its map
// needs Publish's content compare. It reports false, changing nothing,
// when name has no record (never published, or removed since): the
// caller then publishes the full record.
func (s *Service) PublishQueueState(name string, total, free, queued int) bool {
	si := s.shardIndexFor(name)
	sh := s.shards[si]
	at, ok := sh.index[name]
	if !ok {
		return false
	}
	old := sh.rows[at]
	nr := &row{rec: old.rec}
	nr.rec.TotalCPUs, nr.rec.FreeCPUs, nr.rec.QueuedJobs = total, free, queued
	nr.rec.UpdatedAt = s.sim.Now()
	nr.vals = sh.schema.requeued(old, nr.rec)
	s.store(si, nr, old, at, true)
	return true
}

// store is the tail both write paths share: it stores nr over old,
// which sits at position at in shard si, or appends it when old is
// nil; bumps the shard and global epochs; moves the shared attribute
// counts unless the name set is the same; and logs the delta.
func (s *Service) store(si int, nr, old *row, at int, sameNames bool) {
	sh := s.shards[si]
	name := nr.rec.Name
	sh.own()
	dk := DeltaUpdated
	if old != nil {
		sh.rows[at] = nr
	} else {
		dk = DeltaAdded
		if n := len(sh.rows); n > 0 && sh.rows[n-1].rec.Name > name {
			sh.sorted = false
		}
		sh.index[name] = len(sh.rows)
		sh.rows = append(sh.rows, nr)
	}
	sh.epoch++
	s.epoch++
	if old == nil {
		s.count++
	}
	if !sameNames {
		if old != nil {
			s.dropAttrs(old.rec)
		}
		s.addAttrs(nr.rec)
	}
	s.logDelta(si, dk, nr.rec)
}

// compareAttrs reports whether two attribute maps have the same names
// (exact spellings) and, if so, also the same values.
func compareAttrs(old, now map[string]any) (sameNames, sameValues bool) {
	if len(old) != len(now) {
		return false, false
	}
	sameValues = true
	for k, v := range now {
		ov, ok := old[k]
		if !ok {
			return false, false
		}
		sameValues = sameValues && attrEqual(ov, v)
	}
	return true, sameValues
}

// attrEqual compares two attribute values of the types sites publish.
// Anything else (which may not even be comparable) counts as changed,
// which only costs the publish its shortcut.
func attrEqual(a, b any) bool {
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case int:
		y, ok := b.(int)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	}
	return false
}

// requeued returns old's vector carrying rec's queue state: the same
// slice when the three counts did not move (or old has no vector yet),
// else a copy with the moved slots overwritten. rec's static attributes
// must equal old's.
func (sc *Schema) requeued(old *row, rec SiteRecord) []any {
	o := &old.rec
	if old.vals == nil || o.TotalCPUs == rec.TotalCPUs && o.FreeCPUs == rec.FreeCPUs && o.QueuedJobs == rec.QueuedJobs {
		return old.vals
	}
	v := slices.Clone(old.vals)
	if o.TotalCPUs != rec.TotalCPUs {
		v[sc.total] = float64(rec.TotalCPUs)
	}
	if o.FreeCPUs != rec.FreeCPUs {
		v[sc.free] = float64(rec.FreeCPUs)
	}
	if o.QueuedJobs != rec.QueuedJobs {
		v[sc.queued] = float64(rec.QueuedJobs)
	}
	return v
}

// Remove deletes a site record (site decommissioned or expired).
func (s *Service) Remove(name string) {
	si := s.shardIndexFor(name)
	sh := s.shards[si]
	at, ok := sh.index[name]
	if !ok {
		return
	}
	old := sh.rows[at]
	sh.own()
	last := len(sh.rows) - 1
	if at != last {
		sh.rows[at] = sh.rows[last]
		sh.index[sh.rows[at].rec.Name] = at
		sh.sorted = false
	}
	sh.rows[last] = nil
	sh.rows = sh.rows[:last]
	delete(sh.index, name)
	sh.epoch++
	s.epoch++
	s.count--
	s.dropAttrs(old.rec)
	s.logDelta(si, DeltaRemoved, SiteRecord{Name: name})
}

// addAttrs credits a record's static attributes to the shared schema
// bookkeeping, invalidating the schema when the name set grows.
func (s *Service) addAttrs(rec SiteRecord) {
	for k := range rec.Attrs {
		lk := strings.ToLower(k)
		if lk == "totalcpus" || lk == "freecpus" || lk == "queuedjobs" {
			continue
		}
		if s.attrCount[lk] == 0 {
			s.attrCanon[lk] = k
			s.schema = nil
		}
		s.attrCount[lk]++
	}
}

// dropAttrs is addAttrs's inverse, invalidating the schema when an
// attribute loses its last holder.
func (s *Service) dropAttrs(rec SiteRecord) {
	for k := range rec.Attrs {
		lk := strings.ToLower(k)
		if lk == "totalcpus" || lk == "freecpus" || lk == "queuedjobs" {
			continue
		}
		if s.attrCount[lk]--; s.attrCount[lk] <= 0 {
			delete(s.attrCount, lk)
			delete(s.attrCanon, lk)
			s.schema = nil
		}
	}
}

// sharedSchema returns the service-wide schema covering every static
// attribute any published record carries, rebuilding it only when the
// attribute name set changed since the last call.
func (s *Service) sharedSchema() *Schema {
	if s.schema == nil {
		names := make([]string, 0, len(s.attrCanon))
		for _, canon := range s.attrCanon {
			names = append(names, canon)
		}
		s.schema = newSchema(names)
	}
	return s.schema
}

// Len reports the number of published sites without query cost
// (instrumentation, not part of the simulated protocol).
func (s *Service) Len() int { return s.count }

// Epoch reports the current registry generation (bumped by every
// Publish and effective Remove), without query cost.
func (s *Service) Epoch() uint64 { return s.epoch }

// Snapshot is SnapshotImmediate. A caller charges QueryLatency itself,
// in event style, as the broker's discovery does; the name is kept for
// the benchmark harness's timing decorator, which overrides it.
func (s *Service) Snapshot() *Snapshot { return s.SnapshotImmediate() }

// SnapshotImmediate returns the current snapshot without charging
// query latency; tests and instrumentation use it. While the service
// is partitioned it returns the view frozen at partition start.
//
// With more than one shard the result is the cached merge of every
// shard's snapshot, all cut in one call and so at one global epoch.
func (s *Service) SnapshotImmediate() *Snapshot {
	if s.cutWhole != nil {
		return s.cutWhole
	}
	return s.liveWhole()
}

// shardView pins shard i's current snapshot — or, while the service is
// partitioned, the one frozen at partition start.
func (s *Service) shardView(i int) *Snapshot {
	if s.cutShards != nil {
		return s.cutShards[i]
	}
	return s.liveShard(i)
}

// Partitioned reports whether the service is serving its cut-time view.
func (s *Service) Partitioned() bool { return s.cutShards != nil }

// SetPartitioned cuts (or heals) the broker↔index link. While cut,
// every query — whole-grid, paged or subscribed — is served from the
// snapshots taken at partition start: publishes still land in the
// registry, but brokers see a stale world until the partition heals.
// Healing resumes normal (current-epoch) service on the next query.
// Idempotent per direction: a second cut keeps the first cut's view.
func (s *Service) SetPartitioned(cut bool) {
	if !cut {
		s.cutShards, s.cutWhole = nil, nil
		return
	}
	if s.Partitioned() {
		return
	}
	shards := make([]*Snapshot, len(s.shards))
	for i := range shards {
		shards[i] = s.liveShard(i)
	}
	s.cutShards, s.cutWhole = shards, s.liveWhole()
}

// liveShard is shard i of the live registry.
func (s *Service) liveShard(i int) *Snapshot { return s.shardSnapshot(i, s.sharedSchema()) }

// liveWhole is the live whole-grid snapshot.
func (s *Service) liveWhole() *Snapshot {
	if s.merged != nil && s.mergedEpoch == s.epoch {
		return s.merged
	}
	sc := s.sharedSchema()
	var merged *Snapshot
	if len(s.shards) == 1 {
		// One shard: the merged view IS the shard snapshot (already
		// name-sorted), preserving the monolithic index's zero-copy
		// behavior.
		merged = s.shardSnapshot(0, sc)
	} else {
		parts := make([]*Snapshot, len(s.shards))
		for i := range s.shards {
			parts[i] = s.shardSnapshot(i, sc)
		}
		merged = mergeSnapshots(s.epoch, parts, sc)
	}
	s.merged, s.mergedEpoch = merged, s.epoch
	return merged
}

// shardSnapshot returns shard i's snapshot laid out against sc, cutting
// a new one only when the shard's epoch moved or the shared schema
// changed. Cutting wraps the standing rows: it sorts only after an
// insert or remove left them out of name order, and re-flattens only
// when the rows are laid out against another schema.
func (s *Service) shardSnapshot(i int, sc *Schema) *Snapshot {
	sh := s.shards[i]
	if sh.snap != nil && sh.snap.epoch == sh.epoch && sh.snap.schema == sc {
		return sh.snap
	}
	if !sh.sorted {
		// The insert or remove that cleared sorted took rows back from
		// every snapshot (own), and none was cut since.
		sortRows(sh.rows)
		for at, r := range sh.rows {
			sh.index[r.rec.Name] = at
		}
		sh.sorted = true
	}
	if sh.schema != sc {
		recs := make([]SiteRecord, len(sh.rows))
		for at, r := range sh.rows {
			recs[at] = r.rec
		}
		sh.rows, sh.schema = flatRows(recs, sc), sc
	}
	sh.snap = &Snapshot{epoch: sh.epoch, schema: sc, rows: sh.rows}
	sh.shared = true
	return sh.snap
}

// mergeSnapshots concatenates per-shard snapshots, all laid out
// against sc, into one whole-grid snapshot sorted by site name. The
// merged view shares the shards' rows.
func mergeSnapshots(epoch uint64, parts []*Snapshot, sc *Schema) *Snapshot {
	n := 0
	for _, p := range parts {
		n += len(p.rows)
	}
	m := &Snapshot{epoch: epoch, schema: sc, rows: make([]*row, 0, n)}
	for _, p := range parts {
		m.rows = append(m.rows, p.rows...)
	}
	sortRows(m.rows)
	return m
}

// sortRows orders rows by site name.
func sortRows(rows []*row) {
	slices.SortFunc(rows, func(a, b *row) int { return cmp.Compare(a.rec.Name, b.rec.Name) })
}

// StaleAfter reports the records older than maxAge at the current
// clock time; monitoring uses it to spot sites that stopped pushing.
func (s *Service) StaleAfter(maxAge time.Duration) []string {
	now := s.sim.Now()
	var stale []string
	for _, sh := range s.shards {
		for _, r := range sh.rows {
			if now.Sub(r.rec.UpdatedAt) > maxAge {
				stale = append(stale, r.rec.Name)
			}
		}
	}
	sort.Strings(stale)
	return stale
}
