package infosys

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// The registry property: a shard is a standing row store that every
// Publish and Remove repairs, and a snapshot wraps its rows. So after
// any sequence of operations
//
//   - what the registry holds and serves equals a snapshot rebuilt from
//     scratch over the live records (NewSnapshot, the oracle),
//   - every snapshot ever handed out still reads as it did when cut,
//   - each shard's epoch moved by exactly one per effective mutation.
//
// runRegistryOps decodes a byte stream into such a sequence and checks
// all three after every step. TestRegistryRepairedEqualsRebuilt feeds
// it seeded random streams; FuzzRegistryOps lets the fuzzer write them.

// propSites are the site names, in an order that is not name order so
// that inserts land out of order; propAttrs the attribute names (no two
// collide case-insensitively, so the oracle's first-seen spelling is
// the registry's).
var (
	propSites = []string{"m07", "c02", "x11", "a00", "q09", "e03", "z12", "k05",
		"b01", "t10", "g04", "l06", "p08", "y13", "d14", "n15", "s16", "h17", "w18", "f19"}
	propAttrs = []string{"Arch", "OS", "MemoryMB", "GPUs", "Preferred", "Tier"}
)

// propValue picks one of a few values of the type the attribute carries.
func propValue(name string, b byte) any {
	switch name {
	case "Arch":
		return []string{"i686", "x86_64", "sparc"}[b%3]
	case "OS":
		return []string{"linux", "solaris"}[b%2]
	case "MemoryMB":
		return 256 << (b % 4)
	case "GPUs":
		return int(b % 3)
	case "Preferred":
		return b%2 == 0
	}
	return float64(b%4) / 2
}

// world is what one reader of the registry should see: the records and
// every shard's epoch, live or as frozen at a partition.
type world struct {
	recs   map[string]SiteRecord
	epochs []uint64
}

func (w world) clone() world {
	c := world{recs: make(map[string]SiteRecord, len(w.recs)), epochs: append([]uint64(nil), w.epochs...)}
	for k, r := range w.recs {
		c.recs[k] = r.Clone()
	}
	return c
}

// snapCopy is everything a snapshot exposes, deep-copied.
type snapCopy struct {
	Epoch  uint64
	Schema []string
	Recs   []SiteRecord
	Vals   [][]any
}

func copyOf(s *Snapshot) snapCopy {
	c := snapCopy{Epoch: s.Epoch(), Schema: s.Schema().Names(), Recs: s.Records(), Vals: make([][]any, 0, s.Len())}
	for cur := s.Cursor(7); ; {
		p, ok := cur.Next()
		if !ok {
			return c
		}
		for i := 0; i < p.Len(); i++ {
			c.Vals = append(c.Vals, append([]any(nil), p.Values(i)...))
		}
	}
}

// cutSnap is a snapshot that was handed out, with how it read then.
type cutSnap struct {
	snap *Snapshot
	want snapCopy
}

// sameRecord compares two records field by field, Attrs by content.
func sameRecord(a, b SiteRecord) bool {
	return a.Name == b.Name && a.Gatekeeper == b.Gatekeeper &&
		a.TotalCPUs == b.TotalCPUs && a.FreeCPUs == b.FreeCPUs && a.QueuedJobs == b.QueuedJobs &&
		a.UpdatedAt.Equal(b.UpdatedAt) && maps.Equal(a.Attrs, b.Attrs)
}

// subscriber is a delta consumer: per shard, its position and the
// records it has been told about.
type subscriber struct {
	pos  []uint64
	recs []map[string]SiteRecord
}

func newSubscriber(shards int) *subscriber {
	s := &subscriber{pos: make([]uint64, shards), recs: make([]map[string]SiteRecord, shards)}
	for i := range s.recs {
		s.recs[i] = make(map[string]SiteRecord)
	}
	return s
}

// traversal is one open cursor with what it has pinned so far.
type traversal struct {
	cur    *Cursor
	onView bool
	shard  int       // shard of the last page, -1 before the first
	snap   *Snapshot // that shard's pinned snapshot
	hi     int       // end of the last page within snap
}

type regModel struct {
	t      *testing.T
	sim    *simclock.Sim
	svc    *Service
	view   *View
	held   map[string]SiteRecord // what each site's publisher holds; Attrs is its own map
	live   world
	global uint64

	svcFrozen, viewFrozen *world // non-nil while that partition is on
	subs                  [2]*subscriber
	trav                  *traversal
	cuts                  []cutSnap
	step                  int
}

const propLogDepth = 3

// runRegistryOps plays ops against a registry of the given shard count.
// The first byte sets how often the served views are cut and compared
// (every step, or every 2nd to 4th): a cut after every mutation would
// never leave two mutations between cuts, and the in-place write, the
// deferred sort and the index repair only show then. The stored rows
// are checked after every step without cutting.
func runRegistryOps(t *testing.T, shards int, ops []byte) {
	sim := simclock.NewSim(time.Time{})
	svc := NewSharded(sim, 0, shards)
	svc.SetDeltaLog(propLogDepth)
	m := &regModel{t: t, sim: sim, svc: svc, view: svc.NewView(),
		held: make(map[string]SiteRecord),
		live: world{recs: make(map[string]SiteRecord), epochs: make([]uint64, shards)},
		subs: [2]*subscriber{newSubscriber(shards), newSubscriber(shards)}}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	stride := 1 + int(next())%4
	for len(ops) > 0 {
		m.step++
		sim.AfterFunc(time.Second, func() {}) // the clock only moves to events
		sim.RunFor(time.Second)
		op := next()
		switch op % 16 {
		case 0, 1:
			m.republish(next(), func(*SiteRecord) {})
		case 2, 3:
			b := next()
			m.republish(next(), func(r *SiteRecord) {
				r.FreeCPUs, r.QueuedJobs, r.TotalCPUs = int(b%5), int(b>>3%4), 4+int(b>>6)
			})
		case 4, 5:
			b := next()
			m.republish(next(), func(r *SiteRecord) { m.changeValue(r, b) })
		case 6:
			b := next()
			m.republish(next(), func(r *SiteRecord) { m.changeNames(r, b) })
		case 7, 8:
			m.publishNew(next(), next())
		case 9:
			// The publisher rewrites the map it published and does not
			// publish: the registry must hold what was published.
			if name, ok := m.pickLive(next()); ok {
				r := m.held[name]
				m.changeValue(&r, next())
			}
		case 10:
			m.remove(propSites[int(next())%len(propSites)])
		case 11:
			m.cut(next())
		case 12, 13:
			m.cursorStep(next())
		case 14:
			m.partition(next())
		case 15:
			m.poll(next())
		}
		m.checkStore()
		m.checkCuts()
		if m.step%stride == 0 {
			m.checkServed()
		}
	}
	m.checkServed()
	m.checkStore()
	m.checkCuts()
}

func (m *regModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d: %s", m.step, fmt.Sprintf(format, args...))
}

// pickLive chooses a published site, in name order so that the choice
// depends on the op stream alone.
func (m *regModel) pickLive(b byte) (string, bool) {
	if len(m.live.recs) == 0 {
		return "", false
	}
	names := make([]string, 0, len(m.live.recs))
	for n := range m.live.recs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names[int(b)%len(names)], true
}

// publish pushes what the site's publisher holds, through the service
// or the view, and records what the registry must now hold.
func (m *regModel) publish(name string, viaView bool) {
	var err error
	if viaView {
		err = m.view.Publish(m.held[name])
	} else {
		err = m.svc.Publish(m.held[name])
	}
	if err != nil {
		m.fatalf("publish %s: %v", name, err)
	}
	r := m.held[name].Clone()
	r.UpdatedAt = m.sim.Now()
	m.live.recs[name] = r
	m.live.epochs[m.svc.shardIndexFor(name)]++
	m.global++
}

// republish lets change edit what a live site's publisher holds (its
// Attrs map in place, or a fresh copy of it when bit 7 of pick is set)
// and publishes it.
func (m *regModel) republish(pick byte, change func(*SiteRecord)) {
	name, ok := m.pickLive(pick)
	if !ok {
		return
	}
	r := m.held[name]
	if pick&0x80 != 0 {
		r = r.Clone()
	}
	change(&r)
	m.held[name] = r
	m.publish(name, pick&0x40 != 0)
}

func (m *regModel) changeValue(r *SiteRecord, b byte) {
	keys := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	k := keys[int(b)%len(keys)]
	for d := byte(1); d < 4; d++ {
		if v := propValue(k, b>>4+d); v != r.Attrs[k] {
			r.Attrs[k] = v
			return
		}
	}
}

func (m *regModel) changeNames(r *SiteRecord, b byte) {
	k := propAttrs[int(b)%len(propAttrs)]
	if _, has := r.Attrs[k]; has {
		delete(r.Attrs, k)
	} else {
		r.Attrs[k] = propValue(k, b>>4)
	}
}

func (m *regModel) publishNew(pick, shape byte) {
	name := propSites[int(pick)%len(propSites)]
	if _, isLive := m.live.recs[name]; isLive {
		return
	}
	attrs := make(map[string]any)
	for i, k := range propAttrs {
		if shape&(1<<i) != 0 {
			attrs[k] = propValue(k, shape>>2+byte(i))
		}
	}
	m.held[name] = SiteRecord{Name: name, Gatekeeper: name + "/gk", Attrs: attrs,
		TotalCPUs: 4, FreeCPUs: int(shape % 5), QueuedJobs: int(shape % 3)}
	m.publish(name, pick&0x80 != 0)
}

func (m *regModel) remove(name string) {
	m.svc.Remove(name)
	if _, ok := m.live.recs[name]; !ok {
		return
	}
	delete(m.live.recs, name)
	delete(m.held, name)
	m.live.epochs[m.svc.shardIndexFor(name)]++
	m.global++
}

// servedBy is what the service (or the view) should answer from now.
func (m *regModel) servedBy(view bool) world {
	if view && m.viewFrozen != nil {
		return *m.viewFrozen
	}
	if m.svcFrozen != nil {
		return *m.svcFrozen
	}
	return m.live
}

func (m *regModel) partition(b byte) {
	cut := b&1 != 0
	if b&2 != 0 {
		m.view.SetPartitioned(cut)
		if !cut {
			m.viewFrozen = nil
		} else if m.viewFrozen == nil {
			w := m.servedBy(false).clone()
			m.viewFrozen = &w
		}
		return
	}
	m.svc.SetPartitioned(cut)
	if !cut {
		m.svcFrozen = nil
	} else if m.svcFrozen == nil {
		w := m.live.clone()
		m.svcFrozen = &w
	}
}

// oracle rebuilds w from scratch. shard < 0 means the whole grid;
// otherwise the shard's records are picked out of it, because a shard
// snapshot is laid out against the service-wide schema.
func (m *regModel) oracle(w world, shard int) snapCopy {
	recs := make([]SiteRecord, 0, len(w.recs))
	for _, r := range w.recs {
		recs = append(recs, r)
	}
	all := copyOf(NewSnapshot(recs, nil))
	if shard < 0 {
		return all
	}
	c := snapCopy{Schema: all.Schema}
	for i, r := range all.Recs {
		if m.svc.shardIndexFor(r.Name) == shard {
			c.Recs, c.Vals = append(c.Recs, r), append(c.Vals, all.Vals[i])
		}
	}
	return c
}

// differs says how s reads differently from c, or "" when it reads the
// same: schema names, record order, every record field and every
// vector. Epochs are left to the caller, which knows which epoch a
// served snapshot carries.
func (c snapCopy) differs(s *Snapshot) string {
	if got := s.Schema().Names(); !slices.Equal(got, c.Schema) {
		return fmt.Sprintf("schema names %v, want %v", got, c.Schema)
	}
	if s.Len() != len(c.Recs) {
		return fmt.Sprintf("%d records, want %d", s.Len(), len(c.Recs))
	}
	page, _ := s.Cursor(s.Len() + 1).Next()
	for i, want := range c.Recs {
		if got := s.RecordShared(i); s.Name(i) != want.Name || !sameRecord(got, want) {
			return fmt.Sprintf("record %d (%s) = %+v, want %+v", i, s.Name(i), got, want)
		}
		if vals := page.Values(i); !slices.Equal(vals, c.Vals[i]) {
			return fmt.Sprintf("%s values %v, want %v", want.Name, vals, c.Vals[i])
		}
	}
	return ""
}

// mustEqual holds a served snapshot to the oracle's.
func (m *regModel) mustEqual(what string, got *Snapshot, want snapCopy) {
	m.t.Helper()
	if d := want.differs(got); d != "" {
		m.fatalf("%s differs from the rebuilt snapshot: %s", what, d)
	}
}

// remember keeps a snapshot to be re-read after every later step.
func (m *regModel) remember(s *Snapshot) {
	c := cutSnap{s, copyOf(s)}
	if len(m.cuts) < 12 {
		m.cuts = append(m.cuts, c)
	} else {
		m.cuts[m.step%len(m.cuts)] = c
	}
}

func (m *regModel) checkCuts() {
	for _, c := range m.cuts {
		if c.snap.Epoch() != c.want.Epoch {
			m.fatalf("a snapshot cut at epoch %d now says epoch %d", c.want.Epoch, c.snap.Epoch())
		}
		if d := c.want.differs(c.snap); d != "" {
			m.fatalf("a snapshot cut at epoch %d changed after it was handed out: %s", c.want.Epoch, d)
		}
	}
}

// cut takes the merged snapshot through the service or the view, holds
// it to the oracle, scribbles over the copies it hands out, and keeps it.
func (m *regModel) cut(b byte) {
	view := b&1 != 0
	var s *Snapshot
	if view {
		s = m.view.SnapshotImmediate()
	} else {
		s = m.svc.SnapshotImmediate()
	}
	m.mustEqual("cut", s, m.oracle(m.servedBy(view), -1))
	m.remember(s)
	for _, r := range s.Records() {
		r.Attrs["Arch"] = "tampered"
		r.Attrs["Scribble"] = 1
	}
	if s.Len() > 0 {
		r := s.Record(int(b>>1) % s.Len())
		delete(r.Attrs, "OS")
	}
}

// checkServed holds what the service and the view answer right now to
// the oracle.
func (m *regModel) checkServed() {
	for _, view := range []bool{false, true} {
		var s *Snapshot
		if view {
			s = m.view.SnapshotImmediate()
		} else {
			s = m.svc.SnapshotImmediate()
		}
		w := m.servedBy(view)
		m.mustEqual(fmt.Sprintf("served (view=%v)", view), s, m.oracle(w, -1))
		var sum uint64
		for _, e := range w.epochs {
			sum += e
		}
		if s.Epoch() != sum {
			m.fatalf("served (view=%v): epoch %d, want %d", view, s.Epoch(), sum)
		}
	}
}

// checkStore reads the shards' standing rows under their locks, without
// cutting a snapshot: the rows are the live records, the index finds
// them, a shard that says it is sorted is, vectors are laid out against
// the shard's schema, and the epochs counted every effective mutation
// once.
func (m *regModel) checkStore() {
	if got := m.svc.Epoch(); got != m.global {
		m.fatalf("global epoch %d after %d effective mutations", got, m.global)
	}
	if got := m.svc.Len(); got != len(m.live.recs) {
		m.fatalf("Len() = %d, %d sites live", got, len(m.live.recs))
	}
	seen := 0
	for si, sh := range m.svc.shards {
		sh.mu.Lock()
		if sh.epoch != m.live.epochs[si] {
			m.fatalf("shard %d at epoch %d after %d effective mutations", si, sh.epoch, m.live.epochs[si])
		}
		if sh.shared && !sh.sorted {
			m.fatalf("shard %d: a snapshot holds rows that are out of name order", si)
		}
		if len(sh.index) != len(sh.rows) {
			m.fatalf("shard %d: %d rows, %d indexed", si, len(sh.rows), len(sh.index))
		}
		for at, r := range sh.rows {
			seen++
			if sh.index[r.rec.Name] != at {
				m.fatalf("shard %d: %s at %d, indexed at %d", si, r.rec.Name, at, sh.index[r.rec.Name])
			}
			if want, ok := m.live.recs[r.rec.Name]; !ok || !sameRecord(r.rec, want) {
				m.fatalf("shard %d holds %+v, published %+v (live %v)", si, r.rec, want, ok)
			}
			if sh.sorted && at > 0 && sh.rows[at-1].rec.Name >= r.rec.Name {
				m.fatalf("shard %d claims name order with %s before %s", si, sh.rows[at-1].rec.Name, r.rec.Name)
			}
			if sh.schema != nil && !slices.Equal(r.vals, valsFor(r.rec, sh.schema)) {
				m.fatalf("shard %d: %s vector %v, flattened %v", si, r.rec.Name, r.vals, valsFor(r.rec, sh.schema))
			}
		}
		sh.mu.Unlock()
	}
	if seen != len(m.live.recs) {
		m.fatalf("shards hold %d rows, %d sites live", seen, len(m.live.recs))
	}
}

// cursorStep opens a traversal or pulls its next page. Other steps run
// between two pages, so publishes land mid-traversal; every page of a
// shard must still come from the one snapshot pinned at the shard's
// first page, which must equal the oracle for what was served then.
func (m *regModel) cursorStep(b byte) {
	if m.trav == nil {
		tr := &traversal{onView: b&1 != 0, shard: -1}
		if tr.onView {
			tr.cur = m.view.DiscoverImmediate(1 + int(b>>1)%4)
		} else {
			tr.cur = m.svc.DiscoverImmediate(1 + int(b>>1)%4)
		}
		m.trav = tr
		return
	}
	tr := m.trav
	p, ok := tr.cur.Next()
	if tr.snap != nil && (!ok || p.Shard() != tr.shard) && tr.hi != tr.snap.Len() {
		m.fatalf("traversal left shard %d at record %d of %d", tr.shard, tr.hi, tr.snap.Len())
	}
	if !ok {
		m.trav = nil
		return
	}
	if p.Shard() != tr.shard {
		if p.Shard() < tr.shard {
			m.fatalf("traversal went back from shard %d to %d", tr.shard, p.Shard())
		}
		w := m.servedBy(tr.onView)
		m.mustEqual(fmt.Sprintf("pinned shard %d", p.Shard()), p.Snapshot(), m.oracle(w, p.Shard()))
		if got, want := p.Snapshot().Epoch(), w.epochs[p.Shard()]; got != want {
			m.fatalf("pinned shard %d at epoch %d, want %d", p.Shard(), got, want)
		}
		m.remember(p.Snapshot())
		tr.shard, tr.snap, tr.hi = p.Shard(), p.Snapshot(), 0
	}
	if p.Snapshot() != tr.snap {
		m.fatalf("shard %d served from two snapshots in one traversal", tr.shard)
	}
	for i := 0; i < p.Len(); i++ {
		if p.Name(i) != tr.snap.Name(tr.hi+i) {
			m.fatalf("shard %d: page record %d is %s, snapshot has %s", tr.shard, i, p.Name(i), tr.snap.Name(tr.hi+i))
		}
	}
	tr.hi += p.Len()
}

// poll asks one shard for what a subscriber missed, through the service
// or the view. The log is shallow, so the model says whether the answer
// must be deltas (one per missed epoch) or a re-pin, and either way the
// subscriber must end up with the shard as served.
func (m *regModel) poll(b byte) {
	view := b&1 != 0
	sub := m.subs[b&1]
	shard := int(b>>1) % len(sub.pos)
	since := sub.pos[shard]
	var u SubUpdate
	if view {
		u = m.view.SubscribeImmediate(shard, since)
	} else {
		u = m.svc.SubscribeImmediate(shard, since)
	}
	w := m.servedBy(view)
	target := w.epochs[shard]
	if since >= target {
		if u.Gap || len(u.Deltas) != 0 || u.ToEpoch != since {
			m.fatalf("caught-up poll of shard %d from %d: %+v", shard, since, u)
		}
		return
	}
	// The ring holds the shard's last propLogDepth mutations.
	oldest := uint64(1)
	if e := m.live.epochs[shard]; e > propLogDepth {
		oldest = e - propLogDepth + 1
	}
	if wantGap := since+1 < oldest; u.Gap != wantGap {
		m.fatalf("poll of shard %d from %d to %d (log from %d): gap=%v", shard, since, target, oldest, u.Gap)
	}
	if u.ToEpoch != target {
		m.fatalf("poll of shard %d from %d: to %d, want %d", shard, since, u.ToEpoch, target)
	}
	if u.Gap {
		sub.recs[shard] = make(map[string]SiteRecord)
		for i := 0; i < u.Snapshot.Len(); i++ {
			sub.recs[shard][u.Snapshot.Name(i)] = u.Snapshot.RecordShared(i)
		}
		m.remember(u.Snapshot)
	} else {
		if uint64(len(u.Deltas)) != target-since {
			m.fatalf("poll of shard %d from %d to %d carried %d deltas", shard, since, target, len(u.Deltas))
		}
		for i, d := range u.Deltas {
			if d.Epoch != since+1+uint64(i) {
				m.fatalf("poll of shard %d from %d: delta %d has epoch %d", shard, since, i, d.Epoch)
			}
			if d.Kind == DeltaRemoved {
				delete(sub.recs[shard], d.Name)
			} else {
				sub.recs[shard][d.Name] = d.Rec
			}
		}
	}
	sub.pos[shard] = u.ToEpoch
	want := make(map[string]SiteRecord)
	for name, r := range w.recs {
		if m.svc.shardIndexFor(name) == shard {
			want[name] = r
		}
	}
	if !maps.EqualFunc(sub.recs[shard], want, sameRecord) {
		m.fatalf("subscriber of shard %d at %d holds %+v, served %+v", shard, target, sub.recs[shard], want)
	}
}

// TestRegistryRepairedEqualsRebuilt runs seeded random operation
// streams over 1, 4 and 16 shards.
func TestRegistryRepairedEqualsRebuilt(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(shards)))
			ops := make([]byte, 1000)
			rng.Read(ops)
			ops[0] = byte(seed) // strides 1 to 4, twice
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runRegistryOps(t, shards, ops)
			})
		}
	}
}

// FuzzRegistryOps hands the op decoder to the fuzzer. The seed corpus
// (testdata/fuzz/FuzzRegistryOps) is one hand-written stream per
// scenario its file name describes; plain go test replays them.
func FuzzRegistryOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, shardSel uint8, ops []byte) {
		runRegistryOps(t, []int{1, 4, 16}[shardSel%3], ops)
	})
}
