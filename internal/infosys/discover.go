package infosys

// Paged discovery: brokers that cannot afford one flat snapshot of
// every site iterate the registry shard by shard, page by page,
// through a Cursor. The cursor pins each shard's copy-on-write
// snapshot the first time it reaches that shard and pages through the
// pinned view, so within a shard a traversal sees one consistent epoch
// — no torn pages, duplicates or omissions — even while sites keep
// publishing. Across shards the view is only loosely consistent
// (shards pinned later may reflect later epochs), which is exactly the
// staleness the paper's hierarchical MDS already exposes between GRIS
// refreshes.

// Page is one contiguous run of records from a single shard snapshot.
// Records reached through a page are shared with the snapshot and must
// not be mutated (see Snapshot.RecordShared).
type Page struct {
	snap   *Snapshot
	lo, hi int // record index range [lo, hi) within snap
	shard  int
}

// Len reports the number of records on the page.
func (p Page) Len() int { return p.hi - p.lo }

// Shard reports which registry shard the page came from.
func (p Page) Shard() int { return p.shard }

// Snapshot returns the pinned shard snapshot backing the page; its
// Schema is the resolver to compile predicates against.
func (p Page) Snapshot() *Snapshot { return p.snap }

// Name returns the site name of page record i without copying.
func (p Page) Name(i int) string { return p.snap.Name(p.lo + i) }

// RecordShared returns page record i under the snapshot's no-mutate
// contract (no per-record map clone).
func (p Page) RecordShared(i int) SiteRecord { return p.snap.rows[p.lo+i].rec }

// Values returns page record i's flat attribute vector — static
// attributes plus publish-time queue state, in schema offset order —
// without copying. Like RecordShared it stays shared with the snapshot
// and every other reader and MUST NOT be written: compiled predicates
// only read it, and a caller that overlays fresh state copies it first
// (PooledMatchAttrs).
func (p Page) Values(i int) []any { return p.snap.rows[p.lo+i].vals }

// Cursor iterates the registry in pages. A cursor is single-use and
// not safe for concurrent use by multiple goroutines; obtain one per
// matchmaking pass.
type Cursor struct {
	svc      *Service
	view     *View     // non-nil when paging a per-broker view
	single   *Snapshot // non-nil when paging one standalone snapshot
	pageSize int
	shard    int
	cur      *Snapshot // pinned snapshot of the current shard
	off      int
}

// DefaultPageSize bounds discovery pages when callers pass a
// non-positive page size.
const DefaultPageSize = 256

// Discover starts a paged traversal of the registry, charging the
// service's query latency once (the index answers a paged query in one
// round trip stream, as LDAP paged results do); when the clock is a
// simulation clock the caller must be a simulation process. Page size
// values < 1 fall back to DefaultPageSize.
func (s *Service) Discover(pageSize int) *Cursor {
	s.clock.Sleep(s.queryLatency)
	return s.DiscoverImmediate(pageSize)
}

// DiscoverImmediate starts a paged traversal without charging query
// latency; tests and instrumentation use it.
func (s *Service) DiscoverImmediate(pageSize int) *Cursor {
	if pageSize < 1 {
		pageSize = DefaultPageSize
	}
	return &Cursor{svc: s, pageSize: pageSize}
}

// Cursor pages over a standalone snapshot (one pinned "shard") with
// the same API, for brokers running without an information service.
func (s *Snapshot) Cursor(pageSize int) *Cursor {
	if pageSize < 1 {
		pageSize = DefaultPageSize
	}
	return &Cursor{single: s, pageSize: pageSize}
}

// shardView pins shard i's current snapshot — or, while the service is
// partitioned, the view frozen at partition start.
func (s *Service) shardView(i int) *Snapshot {
	s.mu.Lock()
	if s.partitioned {
		fs := s.frozenShards[i]
		s.mu.Unlock()
		return fs
	}
	s.mu.Unlock()
	return s.shardSnapshot(i, s.sharedSchema())
}

// Next returns the next non-empty page, or ok=false when the traversal
// is done. Empty shards are skipped.
func (c *Cursor) Next() (Page, bool) {
	if c.single != nil {
		if c.off >= c.single.Len() {
			return Page{}, false
		}
		lo := c.off
		hi := lo + c.pageSize
		if hi > c.single.Len() {
			hi = c.single.Len()
		}
		c.off = hi
		return Page{snap: c.single, lo: lo, hi: hi}, true
	}
	for c.shard < len(c.svc.shards) {
		if c.cur == nil {
			if c.view != nil {
				c.cur = c.view.shardView(c.shard)
			} else {
				c.cur = c.svc.shardView(c.shard)
			}
			c.off = 0
		}
		if c.off < c.cur.Len() {
			lo := c.off
			hi := lo + c.pageSize
			if hi > c.cur.Len() {
				hi = c.cur.Len()
			}
			c.off = hi
			return Page{snap: c.cur, lo: lo, hi: hi, shard: c.shard}, true
		}
		c.shard++
		c.cur = nil
	}
	return Page{}, false
}
