package infosys

// Paged reads: every matchmaking pass iterates the registry shard by
// shard, page by page, through a Cursor instead of one flat snapshot of
// every site. A discovery cursor (Discover) pins each shard's
// copy-on-write snapshot the first time it reaches that shard and pages
// through the pinned view, so within a shard a traversal sees one
// consistent epoch — no torn pages, duplicates or omissions — even
// while sites keep publishing. Across shards the view is only loosely
// consistent (shards pinned later may reflect later epochs), which is
// exactly the staleness the paper's hierarchical MDS already exposes
// between GRIS refreshes. A delta subscriber already holds one pinned
// snapshot per shard, the ones its last poll caught up to, and pages
// them through a PinnedCursor.

// Page is one contiguous run of records from a single shard snapshot.
// Records reached through a page are shared with the snapshot and must
// not be mutated.
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

// Index returns page record i's position in its shard snapshot.
func (p Page) Index(i int) int { return p.lo + i }

// FreeCPUs returns page record i's published free CPU count, without
// copying the record.
func (p Page) FreeCPUs(i int) int { return p.snap.rows[p.lo+i].rec.FreeCPUs }

// Values returns page record i's flat attribute vector — static
// attributes plus publish-time queue state, in schema offset order —
// without copying. It stays shared with the snapshot and every other
// reader and MUST NOT be written: compiled predicates
// only read it, and a caller that overlays fresh state copies it first
// (PooledMatchAttrs).
func (p Page) Values(i int) []any { return p.snap.rows[p.lo+i].vals }

// Cursor iterates the registry in pages. A cursor is single-use;
// obtain one per matchmaking pass.
type Cursor struct {
	src      shardSource
	pageSize int
	shard    int
	cur      *Snapshot // pinned snapshot of the current shard
	off      int
}

// shardSource is what a cursor pages: a Service, which pins a shard as
// served when the cursor reaches it, or a slice of snapshots pinned
// before.
type shardSource interface {
	ShardCount() int
	shardView(i int) *Snapshot
}

// pinned is a shardSource over snapshots the caller already holds.
type pinned []*Snapshot

func (p pinned) ShardCount() int           { return len(p) }
func (p pinned) shardView(i int) *Snapshot { return p[i] }

// DefaultPageSize bounds discovery pages when callers pass a
// non-positive page size.
const DefaultPageSize = 256

// Discover is DiscoverImmediate. A caller charges QueryLatency once
// per traversal itself, in event style (the index answers a paged
// query in one round trip stream, as LDAP paged results do); the name
// is kept for the benchmark harness's timing decorator, which
// overrides it.
func (s *Service) Discover(pageSize int) *Cursor { return s.DiscoverImmediate(pageSize) }

// DiscoverImmediate starts a paged traversal of the registry without
// charging query latency. Page size values < 1 fall back to
// DefaultPageSize.
func (s *Service) DiscoverImmediate(pageSize int) *Cursor { return newCursor(s, pageSize) }

// PinnedCursor pages over shard snapshots the caller already holds, one
// per shard in shard order — such as the ones a delta subscriber caught
// up to — with the same API as a discovery cursor. pins must not change
// while the cursor is in use.
func PinnedCursor(pins []*Snapshot, pageSize int) *Cursor { return newCursor(pinned(pins), pageSize) }

func newCursor(src shardSource, pageSize int) *Cursor {
	if pageSize < 1 {
		pageSize = DefaultPageSize
	}
	return &Cursor{src: src, pageSize: pageSize}
}

// Next returns the next non-empty page, or ok=false when the traversal
// is done. Empty shards are skipped.
func (c *Cursor) Next() (Page, bool) {
	for c.shard < c.src.ShardCount() {
		if c.cur == nil {
			c.cur = c.src.shardView(c.shard)
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
