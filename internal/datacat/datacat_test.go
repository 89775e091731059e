package datacat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/netsim"
)

func TestStagingZeroForLocalReplica(t *testing.T) {
	links := NewLinks(netsim.WideArea())
	c := New(links)
	if err := c.AddReplica("cal.db", 1<<30, "s00", "s03"); err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"s00", "s03"} {
		d, ok := c.StagingTime(site, []string{"cal.db"})
		if !ok || d != 0 {
			t.Fatalf("local staging at %s = (%v, %v), want (0, true)", site, d, ok)
		}
	}
	d, ok := c.StagingTime("s01", []string{"cal.db"})
	if !ok || d <= 0 {
		t.Fatalf("remote staging = (%v, %v), want positive", d, ok)
	}
}

func TestStagingUnobtainable(t *testing.T) {
	c := New(NewLinks(netsim.CampusGrid()))
	if _, ok := c.StagingTime("s00", []string{"ghost"}); ok {
		t.Fatal("unknown dataset reported obtainable")
	}
	c.AddReplica("d1", 100, "s01")
	c.DropReplica("d1", "s01")
	if _, ok := c.StagingTime("s00", []string{"d1"}); ok {
		t.Fatal("replica-less dataset reported obtainable")
	}
	if _, ok := c.StagingTime("s00", nil); !ok {
		t.Fatal("empty dataset list must always be obtainable")
	}
}

func TestAddReplicaValidation(t *testing.T) {
	c := New(NewLinks(netsim.CampusGrid()))
	if err := c.AddReplica("", 10, "a"); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.AddReplica("d", 0, "a"); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := c.AddReplica("d", -5, "a"); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := c.AddReplica("d", 10, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica("d", 20, "b"); err == nil {
		t.Fatal("conflicting size accepted")
	}
	if err := c.AddReplica("d", 10, "b", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas("d"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replicas = %v, want sorted deduped [a b]", got)
	}
}

// TestStagingMonotone is the transfer-cost property sweep: over seeded
// random catalogs, the staging estimate never decreases when a dataset
// grows or when every link gets slower, and is exactly zero iff every
// dataset is local.
func TestStagingMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(20060809))
	sites := []string{"s00", "s01", "s02", "s03", "s04", "s05"}
	for trial := 0; trial < 200; trial++ {
		baseLat := time.Duration(1+rng.Intn(20)) * time.Millisecond
		bw := float64(1+rng.Intn(50)) * 1e6
		mkLinks := func(lat time.Duration) *Links {
			l := NewLinks(netsim.Profile{OneWayDelay: lat, BytesPerSec: bw})
			return l
		}

		nData := 1 + rng.Intn(4)
		type ds struct {
			name     string
			size     int64
			replicas []string
		}
		var data []ds
		for i := 0; i < nData; i++ {
			nRep := 1 + rng.Intn(3)
			reps := append([]string(nil), sites[:nRep]...)
			rng.Shuffle(len(reps), func(a, b int) { reps[a], reps[b] = reps[b], reps[a] })
			data = append(data, ds{
				name: fmt.Sprintf("d%d", i), size: int64(1+rng.Intn(1<<20)) * 256, replicas: reps,
			})
		}
		build := func(links *Links, grow string, extra int64) *Catalog {
			c := New(links)
			for _, d := range data {
				size := d.size
				if d.name == grow {
					size += extra
				}
				if err := c.AddReplica(d.name, size, d.replicas...); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		names := make([]string, len(data))
		allLocal := make(map[string]bool)
		for _, s := range sites {
			allLocal[s] = true
		}
		for i, d := range data {
			names[i] = d.name
			holders := make(map[string]bool)
			for _, r := range d.replicas {
				holders[r] = true
			}
			for s := range allLocal {
				if !holders[s] {
					delete(allLocal, s)
				}
			}
		}

		base := build(mkLinks(baseLat), "", 0)
		grown := build(mkLinks(baseLat), data[0].name, 1<<20)
		slower := build(mkLinks(baseLat+time.Duration(1+rng.Intn(30))*time.Millisecond), "", 0)

		for _, s := range sites {
			d0, ok := base.StagingTime(s, names)
			if !ok {
				t.Fatalf("trial %d: base catalog unobtainable at %s", trial, s)
			}
			// Zero iff all datasets local.
			if (d0 == 0) != allLocal[s] {
				t.Fatalf("trial %d site %s: staging %v but allLocal=%v", trial, s, d0, allLocal[s])
			}
			// Monotone in dataset size.
			if dg, _ := grown.StagingTime(s, names); dg < d0 {
				t.Fatalf("trial %d site %s: staging shrank when dataset grew: %v -> %v", trial, s, d0, dg)
			}
			// Monotone in link latency.
			if dl, _ := slower.StagingTime(s, names); dl < d0 {
				t.Fatalf("trial %d site %s: staging shrank on slower links: %v -> %v", trial, s, d0, dl)
			}
			// Adding a replica never makes staging worse.
			more := build(mkLinks(baseLat), "", 0)
			more.AddReplica(data[0].name, data[0].size, s)
			if dm, _ := more.StagingTime(s, names); dm > d0 {
				t.Fatalf("trial %d site %s: staging grew after adding a local replica: %v -> %v", trial, s, d0, dm)
			}
		}
	}
}

// TestStagingInsertionOrderIndependent pins the determinism the match
// paths rely on: replica insertion order never changes the estimate.
func TestStagingInsertionOrderIndependent(t *testing.T) {
	links := NewLinks(netsim.WideArea())
	links.SetBoth("a", "target", netsim.CampusGrid())
	c1 := New(links)
	c1.AddReplica("d", 1<<28, "a", "b", "c")
	c2 := New(links)
	c2.AddReplica("d", 1<<28, "c")
	c2.AddReplica("d", 1<<28, "b")
	c2.AddReplica("d", 1<<28, "a")
	d1, _ := c1.StagingTime("target", []string{"d"})
	d2, _ := c2.StagingTime("target", []string{"d"})
	if d1 != d2 {
		t.Fatalf("insertion order changed the estimate: %v vs %v", d1, d2)
	}
	// The cheapest replica (campus link from a) wins over the wide-area
	// default.
	want := netsim.CampusGrid().TransferTimeBytes(1 << 28)
	if d1 != want {
		t.Fatalf("estimate %v, want the cheapest link %v", d1, want)
	}
}
