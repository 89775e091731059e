// Package datacat models grid data placement: named datasets of known
// size, replicated across sites, and a transfer-cost model over
// netsim link profiles. The broker folds the estimated staging time of
// a job's InputData into its rank (compute rank minus staging
// seconds), turning matchmaking data-aware in the style of the Gridbus
// data-oriented broker: a local replica costs nothing, a remote one
// costs its cheapest replica transfer.
//
// The catalog is deterministic by construction — replica sets are kept
// sorted and ties between equally cheap replicas break by site name —
// so the penalty the broker's match pipeline derives from it does not
// depend on the order sites or replicas were enumerated in.
package datacat

import (
	"fmt"
	"sort"
	"time"

	"crossbroker/internal/netsim"
)

// pairKey identifies a directed site pair in the link table.
type pairKey struct{ from, to string }

// Links is the inter-site network topology used to price replica
// transfers: a default profile plus directed per-pair overrides.
type Links struct {
	def  netsim.Profile
	pair map[pairKey]netsim.Profile
}

// NewLinks creates a topology whose unlisted pairs use def.
func NewLinks(def netsim.Profile) *Links {
	return &Links{def: def, pair: make(map[pairKey]netsim.Profile)}
}

// Set overrides the directed from->to link.
func (l *Links) Set(from, to string, p netsim.Profile) { l.pair[pairKey{from, to}] = p }

// SetBoth overrides both directions of the pair.
func (l *Links) SetBoth(a, b string, p netsim.Profile) {
	l.Set(a, b, p)
	l.Set(b, a, p)
}

// Between returns the profile of the directed from->to link.
func (l *Links) Between(from, to string) netsim.Profile {
	if l == nil {
		return netsim.Profile{}
	}
	if p, ok := l.pair[pairKey{from, to}]; ok {
		return p
	}
	return l.def
}

// dataset is one named dataset: its size and the sorted sites holding
// a replica.
type dataset struct {
	size  int64
	sites []string // sorted, deduplicated
}

// Catalog is the grid-wide replica catalog.
type Catalog struct {
	links    *Links
	datasets map[string]*dataset
}

// New creates an empty catalog over the given link topology (nil
// links: all transfers are free beyond the zero profile).
func New(links *Links) *Catalog {
	return &Catalog{links: links, datasets: make(map[string]*dataset)}
}

// AddReplica registers size bytes of dataset name at the given sites
// (merged into any existing replica set). The size of an existing
// dataset must not change.
func (c *Catalog) AddReplica(name string, size int64, sites ...string) error {
	if name == "" {
		return fmt.Errorf("datacat: empty dataset name")
	}
	if size <= 0 {
		return fmt.Errorf("datacat: dataset %q has non-positive size %d", name, size)
	}
	d := c.datasets[name]
	if d == nil {
		d = &dataset{size: size}
		c.datasets[name] = d
	} else if d.size != size {
		return fmt.Errorf("datacat: dataset %q size %d conflicts with registered %d", name, size, d.size)
	}
	for _, s := range sites {
		if s == "" {
			continue
		}
		i := sort.SearchStrings(d.sites, s)
		if i < len(d.sites) && d.sites[i] == s {
			continue
		}
		d.sites = append(d.sites, "")
		copy(d.sites[i+1:], d.sites[i:])
		d.sites[i] = s
	}
	return nil
}

// DropReplica removes site's replica of name (a site death or a
// storage retirement). The dataset itself stays registered even with
// zero replicas; StagingTime then reports it unobtainable.
func (c *Catalog) DropReplica(name, site string) {
	d := c.datasets[name]
	if d == nil {
		return
	}
	i := sort.SearchStrings(d.sites, site)
	if i < len(d.sites) && d.sites[i] == site {
		d.sites = append(d.sites[:i], d.sites[i+1:]...)
	}
}

// Datasets returns the registered dataset names, sorted.
func (c *Catalog) Datasets() []string {
	names := make([]string, 0, len(c.datasets))
	for n := range c.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns a dataset's size in bytes.
func (c *Catalog) Size(name string) (int64, bool) {
	d := c.datasets[name]
	if d == nil {
		return 0, false
	}
	return d.size, true
}

// Replicas returns the sorted sites holding name (copy).
func (c *Catalog) Replicas(name string) []string {
	d := c.datasets[name]
	if d == nil {
		return nil
	}
	return append([]string(nil), d.sites...)
}

// HasLocal reports whether site holds a replica of name.
func (c *Catalog) HasLocal(site, name string) bool {
	d := c.datasets[name]
	if d == nil {
		return false
	}
	i := sort.SearchStrings(d.sites, site)
	return i < len(d.sites) && d.sites[i] == site
}

// StagingTime estimates how long site would take to stage every named
// dataset before a job could run there: zero for a local replica, the
// cheapest replica transfer over the link topology otherwise, summed
// across datasets (transfers are serialized through the site's storage
// element). ok is false when some dataset is unknown or has no replica
// anywhere — the job cannot run at any price.
func (c *Catalog) StagingTime(site string, names []string) (time.Duration, bool) {
	if c == nil {
		return 0, true
	}
	var total time.Duration
	for _, n := range names {
		d, ok := c.stageOne(site, n)
		if !ok {
			return 0, false
		}
		total += d
	}
	return total, true
}

// stageOne prices one dataset at site: zero if local, else the minimum
// transfer time over all replica holders (site-name tie-break, so the
// estimate is independent of insertion order).
func (c *Catalog) stageOne(site, name string) (time.Duration, bool) {
	d := c.datasets[name]
	if d == nil || len(d.sites) == 0 {
		return 0, false
	}
	i := sort.SearchStrings(d.sites, site)
	if i < len(d.sites) && d.sites[i] == site {
		return 0, true
	}
	best := time.Duration(-1)
	for _, holder := range d.sites {
		t := c.links.Between(holder, site).TransferTimeBytes(d.size)
		if best < 0 || t < best {
			best = t
		}
	}
	return best, true
}
