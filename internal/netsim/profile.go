// Package netsim models the two network environments of the paper's
// testbed — the campus grid (100 Mbps LAN between submission and
// execution machine) and the wide-area path between UAB and the IFCA
// center in Santander — as well as arbitrary synthetic profiles.
//
// It provides two views of a network:
//
//   - Real-time shaped connections (Pair, Net): in-memory full-duplex
//     net.Conn pairs whose delivery obeys a Profile's one-way delay,
//     jitter and bandwidth, with link-failure injection. These carry
//     the Grid Console and baseline streams in the Figure 6/7
//     experiments and in tests.
//   - Virtual-time cost functions (Profile.TransferTime, Profile.RTT):
//     closed-form costs used by the discrete-event grid simulation
//     behind Table I.
//
// All randomness (jitter) is drawn from an explicitly seeded generator
// so experiments are reproducible.
package netsim

import (
	"math/rand"
	"time"
)

// Profile describes one network path.
type Profile struct {
	// Name identifies the profile in experiment output.
	Name string
	// OneWayDelay is the propagation delay applied to every segment.
	OneWayDelay time.Duration
	// Jitter is the maximum extra random delay added per segment
	// (uniform in [0, Jitter]).
	Jitter time.Duration
	// BytesPerSec is the link bandwidth used for serialization delay.
	// Zero means infinite bandwidth.
	BytesPerSec float64
	// PerMessageCost models fixed per-message protocol overhead
	// (framing, encryption) added on top of propagation.
	PerMessageCost time.Duration
}

// CampusGrid models the paper's first scenario: submission and
// execution machines on the same 100 Mbps campus network.
func CampusGrid() Profile {
	return Profile{
		Name:        "campus",
		OneWayDelay: 150 * time.Microsecond,
		Jitter:      50 * time.Microsecond,
		BytesPerSec: 100e6 / 8, // 100 Mbps
	}
}

// WideArea models the paper's second scenario: the client at UAB and
// the execution machine at IFCA (Santander) across the Spanish
// academic Internet.
func WideArea() Profile {
	return Profile{
		Name:        "ifca",
		OneWayDelay: 5 * time.Millisecond,
		Jitter:      2 * time.Millisecond,
		BytesPerSec: 16e6 / 8, // ~16 Mbps effective path
	}
}

// Loopback is an essentially free network, useful in unit tests.
func Loopback() Profile {
	return Profile{Name: "loopback"}
}

// Scale returns a copy of p with all delays multiplied by f, used to
// shrink real-time experiments without changing their shape.
func (p Profile) Scale(f float64) Profile {
	p.OneWayDelay = time.Duration(float64(p.OneWayDelay) * f)
	p.Jitter = time.Duration(float64(p.Jitter) * f)
	p.PerMessageCost = time.Duration(float64(p.PerMessageCost) * f)
	return p
}

// TransferTime returns the one-way virtual-time cost of moving n bytes
// as a single message: propagation + serialization + per-message cost.
// Jitter is not included; callers wanting jitter add it from their own
// RNG via jitterSample.
func (p Profile) TransferTime(n int) time.Duration {
	d := p.OneWayDelay + p.PerMessageCost
	if p.BytesPerSec > 0 {
		d += time.Duration(float64(n) / p.BytesPerSec * float64(time.Second))
	}
	return d
}

// TransferTimeBytes is TransferTime for int64 sizes (dataset staging
// moves gigabytes; int would overflow on 32-bit platforms).
func (p Profile) TransferTimeBytes(n int64) time.Duration {
	d := p.OneWayDelay + p.PerMessageCost
	if p.BytesPerSec > 0 {
		d += time.Duration(float64(n) / p.BytesPerSec * float64(time.Second))
	}
	return d
}

// RTT returns the round-trip propagation time excluding payload
// serialization.
func (p Profile) RTT() time.Duration {
	return 2 * (p.OneWayDelay + p.PerMessageCost)
}

// jitterSample draws one jitter value from rng, uniform in [0,
// p.Jitter].
func (p Profile) jitterSample(rng *rand.Rand) time.Duration {
	if p.Jitter <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(p.Jitter) + 1))
}
