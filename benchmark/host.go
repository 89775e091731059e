package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The child pins these two so every repetition runs the same way on
// any host: one simulation is one logical thread, and the second
// thread is where the collector overlaps. GC percent 400 is what
// `gridbench -exp replay` ships with.
const (
	pinnedProcs     = 2
	pinnedGCPercent = 400
)

// hostFingerprint identifies the host and build a set of numbers came
// from, so numbers from different machines are never silently
// compared. It heads every output.
func hostFingerprint(reps int, seed int64) string {
	return fmt.Sprintf("host: cpu=%q nproc=%d go=%s GOMAXPROCS=%d gc_percent=%d K=%d seed=%d commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.Version(), pinnedProcs, pinnedGCPercent, reps, seed, gitCommit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the revision the toolchain stamped into the binary. A
// checkout that is not a git repository (the benchmark driver's) has
// none.
func gitCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuClock is cpuSeconds as a duration, for timing short loops.
func cpuClock() time.Duration { return time.Duration(cpuSeconds() * 1e9) }

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// section is what one timed stretch of the child cost the host.
type section struct {
	CPUSeconds  float64 `json:"cpu_s"`
	WallSeconds float64 `json:"wall_s"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
}

// timeSection runs fn between two readings of the process clocks and
// allocator counters. A collection first, so garbage from set-up is
// not charged to the section.
func timeSection(fn func() error) (section, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, wall0 := cpuSeconds(), time.Now()
	err := fn()
	wall, cpu1 := time.Since(wall0), cpuSeconds()
	runtime.ReadMemStats(&after)
	return section{
		CPUSeconds:  cpu1 - cpu0,
		WallSeconds: wall.Seconds(),
		AllocBytes:  after.TotalAlloc - before.TotalAlloc,
		Mallocs:     after.Mallocs - before.Mallocs,
	}, err
}
