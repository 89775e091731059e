package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"crossbroker/internal/workload"
)

// Host speed. On a shared host the same work costs a different number
// of CPU seconds from one minute to the next (README.md has the
// measurements), and a run that lasts half a minute sits inside one
// such stretch: no minimum or median over its repetitions removes
// that. What does: a fixed kernel that is timed in short bursts all
// through the measured section. Every host time is reported in
// reference seconds: measured seconds x host speed, where host speed is
// what a burst costs on the reference box in a good stretch / what it
// cost here and now. The constant cancels when two commits are measured
// on one host; numbers from different hosts are not comparable.
//
// The kernel is an event loop without the events: a binary min-heap of
// 2M keys (16 MB) whose root is rekeyed to a later time and sifted down,
// per iteration. Two properties matter.
//
// It does not depend on the code under test. Every timed spin follows
// an untimed spin of the same length, so it runs on the cache contents
// the kernel itself left, whatever the program left before; and the
// keys live in memory mapped outside the Go heap, so the kernel neither
// allocates nor counts towards the collector's pacing of the program.
//
// Its cost moves with the host as the simulator's does. The upper
// levels of the heap stay in the core's caches and the lower ones come
// from the shared cache, a mix close to the simulator's: over identical
// repetitions that spanned fast and slow stretches, the log-log slope
// of the timed section's CPU time against the burst time was 1.15 on
// replay-day, 1.18 on replay-wide, 1.40 on replay-overload and 1.07 on
// registry-churn (README.md), so host speed is the burst ratio to the
// power 1.15. A kernel that fits the core's own caches swings more
// than the simulator (slope 0.73 for a 240 KB heap), one four times as
// large less (1.30).

const (
	kernelKeys = 2 << 20
	burstIters = 1300
	// nominalBurst is the CPU time of one timed spin on the reference
	// box (Xeon 2.1 GHz, 2 vCPUs, go1.24) in a good stretch, and
	// speedExponent the measured slope above.
	nominalBurst  = 290 * time.Microsecond
	speedExponent = 1.15
	// burstsPerRun is how many bursts are spread over one timed section,
	// setupBursts how many are taken before and after each set-up.
	burstsPerRun = 100
	setupBursts  = 5
)

// speedometer times bursts of the kernel. In a traced child every
// burst is a span, so that the spans around it do not count it as
// their own time.
type speedometer struct {
	keys   []byte // kernelKeys little-endian uint64s, a min-heap
	state  uint64
	bursts []float64 // CPU seconds of each timed spin since the last take
	cost   float64   // CPU seconds of all spins since the last take
	rec    *recorder
}

func newSpeedometer(rec *recorder) (*speedometer, error) {
	keys, err := syscall.Mmap(-1, 0, 8*kernelKeys, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speedometer: map %d bytes: %w", 8*kernelKeys, err)
	}
	// Ascending keys are a valid heap.
	for i := 0; i < kernelKeys; i++ {
		binary.LittleEndian.PutUint64(keys[8*i:], uint64(i)<<20)
	}
	s := &speedometer{keys: keys, state: 1, rec: rec}
	// Bring the heap's busy paths into the shared cache, so that the
	// first bursts find it as the later ones do.
	for i := 0; i < 20; i++ {
		s.spin()
	}
	return s, nil
}

// residentKB is the memory the kernel keeps resident in the process: it
// is not the program's, and is taken out of the peak resident set.
func (s *speedometer) residentKB() int64 { return int64(len(s.keys)) / 1024 }

// spin fires the root burstIters times: it is rekeyed to a later time
// and sifted down to its place.
func (s *speedometer) spin() {
	h := s.keys
	for it := 0; it < burstIters; it++ {
		s.state = s.state*6364136223846793005 + 1442695040888963407
		key := binary.LittleEndian.Uint64(h) + s.state>>24
		i := 0
		for {
			c := 2*i + 1
			if c >= kernelKeys {
				break
			}
			ck := binary.LittleEndian.Uint64(h[8*c:])
			if c+1 < kernelKeys {
				if k := binary.LittleEndian.Uint64(h[8*(c+1):]); k < ck {
					c, ck = c+1, k
				}
			}
			if key <= ck {
				break
			}
			binary.LittleEndian.PutUint64(h[8*i:], ck)
			i = c
		}
		binary.LittleEndian.PutUint64(h[8*i:], key)
	}
}

// burst warms the caches with one spin and times the next.
func (s *speedometer) burst() {
	id := s.rec.begin("harness.burst")
	t0 := cpuSeconds()
	s.spin()
	t1 := cpuSeconds()
	s.spin()
	t2 := cpuSeconds()
	s.bursts = append(s.bursts, t2-t1)
	s.cost += t2 - t0
	s.rec.end(id)
}

// take returns the host's speed over the bursts since the last take, 1
// being the reference box in a good stretch, and the CPU time those
// bursts took, which is not the program's. The burst time is the mean
// of the middle 60%: a burst that shared its core with a collection, or
// one that got lucky, does not move it.
func (s *speedometer) take() (speed, cost float64) {
	b := s.bursts
	sort.Float64s(b)
	trim := len(b) / 5
	b = b[trim : len(b)-trim]
	sum := 0.0
	for _, x := range b {
		sum += x
	}
	speed, cost = math.Pow(nominalBurst.Seconds()/(sum/float64(len(b))), speedExponent), s.cost
	s.bursts, s.cost = s.bursts[:0], 0
	return speed, cost
}

// pacedStream spreads bursts over a replay: the sweep pulls one job at
// a time from the stream the harness hands it, so every so many jobs
// the stream first times a burst.
type pacedStream struct {
	workload.ReplayStream
	meter *speedometer
	every int
	n     int
}

func (p *pacedStream) Next() (workload.Job, time.Duration, bool) {
	if p.n%p.every == 0 {
		p.meter.burst()
	}
	p.n++
	return p.ReplayStream.Next()
}
