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
// epoch-versioned snapshots built copy-on-write: Publish and Remove
// bump the epoch, and the snapshot is rebuilt at most once per epoch
// no matter how many brokers query it. Snapshots also carry each
// record's matchmaking attributes as a flat value slice keyed by a
// shared Schema, which is what the compiled JDL predicates (package
// jdl) index into, via MatchAttrs vectors recycled through a
// sync.Pool.
//
// To scale past a monolithic index the registry is hash-sharded
// (NewSharded): each shard keeps its own records, epoch and
// copy-on-write snapshot, so a publish invalidates — and a rebuild
// pays for — only one shard, while every shard snapshot is laid out
// against one service-wide Schema so compiled predicates stay cached
// across the whole grid. Brokers that cannot afford one flat snapshot
// of every site iterate the registry page by page through Discover
// (discover.go); the merged whole-grid Snapshot remains available for
// instrumentation, federation views and the broker's test oracle.
package infosys

import (
	"fmt"
	"hash/fnv"
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

// MatchAttrs merges the static attributes with the dynamic queue state
// for Requirements/Rank evaluation. It allocates a fresh map per call;
// the selection hot path uses Snapshot.MatchAttrs instead, which
// recycles flat vectors through a pool.
func (r SiteRecord) MatchAttrs() map[string]any {
	m := make(map[string]any, len(r.Attrs)+3)
	for k, v := range r.Attrs {
		m[k] = v
	}
	m["TotalCPUs"] = r.TotalCPUs
	m["FreeCPUs"] = r.FreeCPUs
	m["QueuedJobs"] = r.QueuedJobs
	return m
}

// The dynamic attribute names present in every schema.
const (
	AttrTotalCPUs  = "TotalCPUs"
	AttrFreeCPUs   = "FreeCPUs"
	AttrQueuedJobs = "QueuedJobs"
)

// Backend-shape attribute names sites publish among their static
// attributes (see batch.BackendInfo): the adapter kind and its
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
	names []string       // canonical spellings, sorted
	index map[string]int // lower-cased name -> offset
}

// newSchema builds a schema over the given attribute names plus the
// dynamic queue-state attributes. Names that collide case-insensitively
// collapse onto one offset (first spelling wins), matching the JDL
// evaluator's case-insensitive attribute lookup.
func newSchema(names []string) *Schema {
	sc := &Schema{index: make(map[string]int, len(names)+3)}
	add := func(name string) {
		key := strings.ToLower(name)
		if _, dup := sc.index[key]; dup {
			return
		}
		sc.index[key] = len(sc.names)
		sc.names = append(sc.names, name)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		add(n)
	}
	add(AttrTotalCPUs)
	add(AttrFreeCPUs)
	add(AttrQueuedJobs)
	return sc
}

// Len reports the number of attribute slots.
func (sc *Schema) Len() int { return len(sc.names) }

// Names returns a copy of the canonical attribute names in offset
// order.
func (sc *Schema) Names() []string { return append([]string(nil), sc.names...) }

// Offset resolves an attribute name, case-insensitively, to its slot.
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
	if len(sc.index) != len(lowered)+3 {
		return false
	}
	for k := range lowered {
		if _, ok := sc.index[k]; !ok {
			return false
		}
	}
	return true
}

// Snapshot is an immutable view of the registry at one epoch. All
// queries between two mutations share the same snapshot allocation;
// accessors that expose mutable data (Record, Records) return deep
// copies, so callers cannot reach published state through a snapshot.
type Snapshot struct {
	epoch  uint64
	schema *Schema
	recs   []SiteRecord // sorted by name; Attrs maps private to the snapshot
	vals   [][]any      // per-record attribute values in schema order, normalized
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
	s := &Snapshot{epoch: epoch, schema: schema, recs: recs, vals: make([][]any, len(recs))}
	for i, r := range recs {
		s.vals[i] = valsFor(r, schema)
	}
	return s
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
	if off, ok := schema.Offset(AttrTotalCPUs); ok {
		v[off] = float64(r.TotalCPUs)
	}
	if off, ok := schema.Offset(AttrFreeCPUs); ok {
		v[off] = float64(r.FreeCPUs)
	}
	if off, ok := schema.Offset(AttrQueuedJobs); ok {
		v[off] = float64(r.QueuedJobs)
	}
	return v
}

// NewSnapshot builds a standalone snapshot from records — for brokers
// running without an information service, and for tests and
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

// NewSnapshotOwned is NewSnapshot without the defensive copy: the
// caller hands recs — and their Attrs maps — over to the snapshot and
// must not touch them afterwards. Brokers rebuilding local snapshots
// from records they just materialized use it to avoid cloning twice.
func NewSnapshotOwned(recs []SiteRecord, prev *Snapshot) *Snapshot {
	var epoch uint64
	if prev != nil {
		epoch = prev.epoch + 1
	}
	return newSnapshot(epoch, recs, prev)
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
func (s *Snapshot) Len() int { return len(s.recs) }

// Name returns the name of record i without copying the record.
func (s *Snapshot) Name(i int) string { return s.recs[i].Name }

// Record returns a deep copy of record i, so mutations cannot reach
// the snapshot or the registry.
func (s *Snapshot) Record(i int) SiteRecord { return s.recs[i].Clone() }

// RecordShared returns record i without copying. The record — its
// Attrs map included — stays shared with the snapshot (and through it
// with every other reader) and MUST NOT be mutated. The paged
// discovery hot path reads through this accessor to keep per-site map
// allocations off each matchmaking pass; callers that need to mutate
// use Record.
func (s *Snapshot) RecordShared(i int) SiteRecord { return s.recs[i] }

// Records returns deep copies of all records, sorted by site name.
func (s *Snapshot) Records() []SiteRecord {
	out := make([]SiteRecord, len(s.recs))
	for i, r := range s.recs {
		out[i] = r.Clone()
	}
	return out
}

// MatchAttrs returns a pooled flat attribute vector for record i,
// preloaded with the record's static attributes and publish-time queue
// state. Callers overlay fresh dynamic state with Set, evaluate, and
// must Release the vector afterwards.
func (s *Snapshot) MatchAttrs(i int) *MatchAttrs {
	m := matchAttrsPool.Get().(*MatchAttrs)
	m.schema = s.schema
	src := s.vals[i]
	if cap(m.vals) < len(src) {
		m.vals = make([]any, len(src))
	} else {
		m.vals = m.vals[:len(src)]
	}
	copy(m.vals, src)
	return m
}

// MatchAttrs is a reusable flat attribute vector (one value slot per
// schema offset) used for Requirements/Rank evaluation against one
// candidate. Vectors are recycled through a sync.Pool; a Released
// vector must not be used again.
type MatchAttrs struct {
	schema *Schema
	vals   []any
}

var matchAttrsPool = sync.Pool{New: func() any { return &MatchAttrs{} }}

// Schema returns the schema the vector is laid out against.
func (m *MatchAttrs) Schema() *Schema { return m.schema }

// Values exposes the flat value slice compiled predicates index into.
func (m *MatchAttrs) Values() []any { return m.vals }

// Set overrides one attribute (normalizing integers to float64),
// reporting whether the name exists in the schema.
func (m *MatchAttrs) Set(name string, v any) bool {
	off, ok := m.schema.Offset(name)
	if !ok {
		return false
	}
	m.vals[off] = normalizeAttr(v)
	return true
}

// SetFloat overrides a numeric attribute without boxing through
// normalizeAttr's any parameter.
func (m *MatchAttrs) SetFloat(name string, v float64) bool {
	off, ok := m.schema.Offset(name)
	if !ok {
		return false
	}
	m.vals[off] = v
	return true
}

// Get reads one attribute by name (case-insensitively).
func (m *MatchAttrs) Get(name string) (any, bool) {
	off, ok := m.schema.Offset(name)
	if !ok || m.vals[off] == nil {
		return nil, false
	}
	return m.vals[off], true
}

// Map materializes the vector as an attribute map, for the uncompiled
// evaluation path and debugging.
func (m *MatchAttrs) Map() map[string]any {
	out := make(map[string]any, len(m.vals))
	for i, v := range m.vals {
		if v != nil {
			out[m.schema.names[i]] = v
		}
	}
	return out
}

// Release returns the vector to the pool.
func (m *MatchAttrs) Release() {
	m.schema = nil
	matchAttrsPool.Put(m)
}

// Service is the information index (the GIIS). Records are
// hash-sharded by site name: each shard keeps its own registry map,
// epoch and copy-on-write snapshot, so a publish invalidates — and the
// next query re-lays-out — only one shard, while the attribute Schema
// is shared service-wide so compiled JDL predicates stay cached across
// shards and epochs. New builds the classic single-shard (monolithic)
// index; NewSharded builds an N-shard one for thousands-of-sites grids
// paged through Discover.
type Service struct {
	clock        simclock.Clock
	queryLatency time.Duration
	shards       []*shard

	mu    sync.Mutex
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

	// partitioned freezes the served view: while set, queries are
	// answered from the snapshots taken at partition start even though
	// sites keep publishing. Models a network partition between the
	// broker and the index (or a wedged GIIS serving stale registrations).
	partitioned  bool
	frozenShards []*Snapshot
	frozenMerged *Snapshot

	// Delta subscription state (delta.go): per-shard log depth, the
	// modeled per-shard link, and the tracer DeltaPublished events go
	// to. tracer is set once at setup and read without s.mu.
	deltaDepth int
	link       netsim.Profile
	hasLink    bool
	tracer     *trace.Tracer
}

// shard is one hash partition of the registry. Lock ordering: shard.mu
// may be held while taking Service.mu (Publish/Remove update the
// shared attribute counts under both); Service.mu is never held while
// taking a shard lock.
type shard struct {
	mu      sync.Mutex
	records map[string]SiteRecord
	epoch   uint64
	snap    *Snapshot // valid while snap.epoch == epoch and the schema matches
	log     *deltaLog // bounded mutation history; nil while disabled
}

// New creates an information service on clock whose queries cost
// queryLatency (one round trip from the broker to the index).
func New(clock simclock.Clock, queryLatency time.Duration) *Service {
	return NewSharded(clock, queryLatency, 1)
}

// NewSharded creates an information service whose registry is split
// into the given number of hash shards (values < 1 mean one shard).
func NewSharded(clock simclock.Clock, queryLatency time.Duration, shards int) *Service {
	if shards < 1 {
		shards = 1
	}
	s := &Service{
		clock:        clock,
		queryLatency: queryLatency,
		shards:       make([]*shard, shards),
		attrCount:    make(map[string]int),
		attrCanon:    make(map[string]string),
	}
	for i := range s.shards {
		s.shards[i] = &shard{records: make(map[string]SiteRecord)}
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

// shardFor hashes a site name onto its shard.
func (s *Service) shardFor(name string) *shard {
	return s.shards[s.shardIndexFor(name)]
}

// QueryLatency returns the configured per-query round-trip cost.
func (s *Service) QueryLatency() time.Duration { return s.queryLatency }

// Publish stores or replaces a site record, stamping it with the
// current time. Sites call this periodically (push model, as GRIS to
// GIIS registration). Each publish starts a new snapshot epoch on the
// record's shard (and a new global epoch).
func (s *Service) Publish(rec SiteRecord) error {
	if rec.Name == "" {
		return fmt.Errorf("infosys: record without site name")
	}
	rec = rec.Clone()
	rec.UpdatedAt = s.clock.Now()
	si := s.shardIndexFor(rec.Name)
	sh := s.shards[si]
	sh.mu.Lock()
	old, replaced := sh.records[rec.Name]
	sh.records[rec.Name] = rec
	sh.epoch++
	dk := DeltaAdded
	if replaced {
		dk = DeltaUpdated
	}
	s.mu.Lock()
	s.epoch++
	globalEpoch := s.epoch
	if replaced {
		s.dropAttrsLocked(old)
	} else {
		s.count++
	}
	s.addAttrsLocked(rec)
	emit := s.logDeltaLocked(sh, dk, rec)
	s.mu.Unlock()
	sh.mu.Unlock()
	if emit {
		s.tracer.Emit(trace.Event{Kind: trace.DeltaPublished,
			Site: rec.Name, N: si, Epoch: globalEpoch, Detail: dk.String()})
	}
	return nil
}

// Remove deletes a site record (site decommissioned or expired).
func (s *Service) Remove(name string) {
	si := s.shardIndexFor(name)
	sh := s.shards[si]
	sh.mu.Lock()
	emit := false
	var globalEpoch uint64
	if old, ok := sh.records[name]; ok {
		delete(sh.records, name)
		sh.epoch++
		s.mu.Lock()
		s.epoch++
		globalEpoch = s.epoch
		s.count--
		s.dropAttrsLocked(old)
		emit = s.logDeltaLocked(sh, DeltaRemoved, SiteRecord{Name: name})
		s.mu.Unlock()
	}
	sh.mu.Unlock()
	if emit {
		s.tracer.Emit(trace.Event{Kind: trace.DeltaPublished,
			Site: name, N: si, Epoch: globalEpoch, Detail: DeltaRemoved.String()})
	}
}

// addAttrsLocked credits a record's static attributes to the shared
// schema bookkeeping, invalidating the schema when the name set grows.
// Callers hold s.mu.
func (s *Service) addAttrsLocked(rec SiteRecord) {
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

// dropAttrsLocked is addAttrsLocked's inverse, invalidating the schema
// when an attribute loses its last holder. Callers hold s.mu.
func (s *Service) dropAttrsLocked(rec SiteRecord) {
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
	s.mu.Lock()
	defer s.mu.Unlock()
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
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Epoch reports the current registry generation (bumped by every
// Publish and effective Remove), without query cost.
func (s *Service) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Snapshot returns the current immutable snapshot, charging the
// service's query latency; when the clock is a simulation clock the
// caller must be a simulation process. This is the broker's discovery
// fast path: between two publishes every caller shares one snapshot
// allocation.
func (s *Service) Snapshot() *Snapshot {
	s.clock.Sleep(s.queryLatency)
	return s.SnapshotImmediate()
}

// SnapshotImmediate returns the current snapshot without charging
// query latency; tests and instrumentation use it. While the service
// is partitioned it returns the view frozen at partition start.
//
// With more than one shard the result is the cached merge of every
// shard's snapshot. A merged view is consistent per shard (each
// shard's slice reflects exactly one shard epoch) but, under
// concurrent publishing, shards may be captured at slightly different
// global epochs — the same guarantee Discover gives page by page.
func (s *Service) SnapshotImmediate() *Snapshot {
	s.mu.Lock()
	if s.partitioned {
		fm := s.frozenMerged
		s.mu.Unlock()
		return fm
	}
	epoch := s.epoch
	if s.merged != nil && s.mergedEpoch == epoch {
		m := s.merged
		s.mu.Unlock()
		return m
	}
	s.mu.Unlock()

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
		merged = mergeSnapshots(epoch, parts, sc)
	}
	s.mu.Lock()
	if s.epoch == epoch && !s.partitioned {
		s.merged, s.mergedEpoch = merged, epoch
	}
	s.mu.Unlock()
	return merged
}

// shardSnapshot returns shard i's copy-on-write snapshot laid out
// against sc, rebuilding it only when the shard's epoch moved or the
// shared schema changed.
func (s *Service) shardSnapshot(i int, sc *Schema) *Snapshot {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.snap == nil || sh.snap.epoch != sh.epoch || sh.snap.schema != sc {
		recs := make([]SiteRecord, 0, len(sh.records))
		for _, r := range sh.records {
			// Records were cloned on Publish and are never handed out
			// mutably, so the snapshot may share them; accessors that
			// expose mutable state clone on the way out.
			recs = append(recs, r)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Name < recs[b].Name })
		sh.snap = buildSnapshot(sh.epoch, recs, sc)
	}
	return sh.snap
}

// mergeSnapshots concatenates per-shard snapshots into one whole-grid
// snapshot sorted by site name. Parts already laid out against sc
// share their record and value slices with the merged view; a part
// caught mid-schema-change is re-flattened.
func mergeSnapshots(epoch uint64, parts []*Snapshot, sc *Schema) *Snapshot {
	n := 0
	for _, p := range parts {
		n += len(p.recs)
	}
	m := &Snapshot{epoch: epoch, schema: sc,
		recs: make([]SiteRecord, 0, n), vals: make([][]any, 0, n)}
	for _, p := range parts {
		m.recs = append(m.recs, p.recs...)
		if p.schema == sc {
			m.vals = append(m.vals, p.vals...)
			continue
		}
		for _, r := range p.recs {
			m.vals = append(m.vals, valsFor(r, sc))
		}
	}
	sort.Sort(&jointSort{m.recs, m.vals})
	return m
}

// jointSort name-sorts a record slice and its parallel value slice.
type jointSort struct {
	recs []SiteRecord
	vals [][]any
}

func (j *jointSort) Len() int           { return len(j.recs) }
func (j *jointSort) Less(a, b int) bool { return j.recs[a].Name < j.recs[b].Name }
func (j *jointSort) Swap(a, b int) {
	j.recs[a], j.recs[b] = j.recs[b], j.recs[a]
	j.vals[a], j.vals[b] = j.vals[b], j.vals[a]
}

// SetPartitioned cuts (or heals) the broker↔index link. While cut,
// every query — whole-grid or paged — is served from the snapshots
// taken at partition start: publishes still land in the registry, but
// brokers see a stale world until the partition heals. Healing resumes
// normal (current-epoch) service on the next query.
func (s *Service) SetPartitioned(cut bool) {
	if !cut {
		s.mu.Lock()
		s.partitioned, s.frozenShards, s.frozenMerged = false, nil, nil
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	already := s.partitioned
	s.mu.Unlock()
	if already {
		return
	}
	sc := s.sharedSchema()
	parts := make([]*Snapshot, len(s.shards))
	for i := range s.shards {
		parts[i] = s.shardSnapshot(i, sc)
	}
	merged := parts[0]
	if len(parts) > 1 {
		s.mu.Lock()
		epoch := s.epoch
		s.mu.Unlock()
		merged = mergeSnapshots(epoch, parts, sc)
	}
	s.mu.Lock()
	if !s.partitioned {
		s.partitioned, s.frozenShards, s.frozenMerged = true, parts, merged
	}
	s.mu.Unlock()
}

// Partitioned reports whether the service is currently serving the
// frozen partition-time view.
func (s *Service) Partitioned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partitioned
}

// Query returns a deep-copied snapshot of all published records,
// sorted by site name. It costs the service's query latency; when the
// clock is a simulation clock the caller must be a simulation process.
// The selection hot path uses Snapshot instead.
func (s *Service) Query() []SiteRecord {
	s.clock.Sleep(s.queryLatency)
	return s.SnapshotImmediate().Records()
}

// QueryImmediate returns the deep-copied snapshot without charging
// query latency; tests and instrumentation use it.
func (s *Service) QueryImmediate() []SiteRecord { return s.SnapshotImmediate().Records() }

// StaleAfter reports the records older than maxAge at the current
// clock time; monitoring uses it to spot sites that stopped pushing.
func (s *Service) StaleAfter(maxAge time.Duration) []string {
	now := s.clock.Now()
	var stale []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name, r := range sh.records {
			if now.Sub(r.UpdatedAt) > maxAge {
				stale = append(stale, name)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(stale)
	return stale
}
