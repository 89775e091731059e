package experiments

import "testing"

// TestScalePassMemoryBounded is the scale sweep's acceptance check at
// the 5,000-site point: the paged pass's per-pass state and allocations
// stay bounded by page size + K while the unbounded "snapshot" cell
// (one shard, TopK 0) grows with the grid, the paged pass is no
// slower, and the delta pass's discovery cost is churn-bounded instead
// of grid-bounded.
func TestScalePassMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-site sweep in -short mode")
	}
	cfg := ScaleConfig{Points: []int{5000}, Shards: 16, PageSize: 256, TopK: 16, Passes: 2, Seed: 2006, ChurnPerPass: 64}
	pts, err := ScaleSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep returned %d points, want paged + snapshot + delta", len(pts))
	}
	var paged, snap, delta ScalePoint
	for _, p := range pts {
		switch p.Mode {
		case "paged":
			paged = p
		case "snapshot":
			snap = p
		case "delta":
			delta = p
		}
	}
	if paged.Scanned != 5000 || snap.Scanned != 5000 {
		t.Fatalf("passes scanned %d/%d records, want 5000", paged.Scanned, snap.Scanned)
	}

	bound := uint64(cfg.PageSize + cfg.TopK)
	if !raceEnabled && paged.AllocsPerPass > bound {
		t.Fatalf("paged pass allocated %d objects at 5000 sites, want <= page size + K = %d",
			paged.AllocsPerPass, bound)
	}
	if paged.PeakCandidates != cfg.TopK {
		t.Fatalf("paged pass held %d candidates at peak, want TopK = %d", paged.PeakCandidates, cfg.TopK)
	}
	if snap.PeakCandidates != 5000 {
		t.Fatalf("snapshot pass held %d candidates at peak, want all 5000", snap.PeakCandidates)
	}
	// Object counts are near-constant for both passes now that the
	// clock's event pool and the broker's scratch pools recycle across
	// passes; the per-pass byte volume still carries the contrast —
	// the unbounded cell ranks a candidate per registry record.
	if floor := uint64(5000 * 16); snap.BytesPerPass < floor {
		t.Fatalf("snapshot pass allocated only %d bytes — the comparison lost its contrast", snap.BytesPerPass)
	}
	if !raceEnabled && paged.BytesPerPass*4 > snap.BytesPerPass {
		t.Fatalf("paged pass bytes (%d) not clearly below snapshot pass bytes (%d)",
			paged.BytesPerPass, snap.BytesPerPass)
	}
	if !raceEnabled && paged.PassMicros > snap.PassMicros {
		t.Fatalf("paged pass slower than snapshot pass at 5000 sites: %dµs > %dµs",
			paged.PassMicros, snap.PassMicros)
	}

	// The delta cell runs under the default per-pass churn: a steady
	// pass applies exactly that many deltas, holds TopK candidates, and
	// its discovery (the poll) is far below the paged pass's serial
	// page walk, let alone the snapshot transfer.
	if delta.Churn != cfg.ChurnPerPass || delta.DeltasPerPass != delta.Churn || delta.RepinsPerPass != 0 {
		t.Fatalf("delta cell: churn=%d deltas=%d repins=%d, want steady-state delta repair at churn %d",
			delta.Churn, delta.DeltasPerPass, delta.RepinsPerPass, cfg.ChurnPerPass)
	}
	if delta.Scanned != 5000 || delta.PeakCandidates != cfg.TopK {
		t.Fatalf("delta cell: scanned=%d peak=%d, want full mirror and TopK peak", delta.Scanned, delta.PeakCandidates)
	}
	if !raceEnabled && delta.DiscoveryMicros >= paged.DiscoveryMicros {
		t.Fatalf("delta poll (%dµs) not below paged discovery (%dµs)",
			delta.DiscoveryMicros, paged.DiscoveryMicros)
	}
	if !raceEnabled && delta.PassMicros > paged.PassMicros {
		t.Fatalf("delta pass slower than paged pass at 5000 sites: %dµs > %dµs",
			delta.PassMicros, paged.PassMicros)
	}
}
