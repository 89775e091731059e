package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// Synthetic SWF archives for benchmarking: the committed golden
// fixtures are a dozen records, far too small to exercise the replay
// hot path or tell speedup points apart, and real million-job archives
// are too large to commit. Instead the benchmark harness generates a
// deterministic archive at run time — same config, same bytes, on any
// machine — and feeds it through the ordinary trace ingest.
//
// The job mix approximates the paper's workload split: ~72% short,
// narrow jobs (the interactive sessions replay classifies by the
// default rule) and ~28% wider batch production jobs. Arrivals spread
// over a 24h span, so 10k jobs offer roughly 766 node·seconds each —
// about 69% utilization of an 8-site × 16-node grid — so a speedup
// sweep shows a real load response instead of a flat line.

// SynthConfig parametrizes a generated archive. The zero value is
// invalid: Jobs must be positive.
type SynthConfig struct {
	// Jobs is the number of records to generate.
	Jobs int
	// Seed selects the deterministic pseudo-random sequence.
	Seed int64
}

func (c SynthConfig) validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("workload: synth jobs %d (want > 0)", c.Jobs)
	}
	return nil
}

// synthSpan is the trace duration arrivals spread over.
const synthSpan = 24 * time.Hour

// synthJitter is the arrival-jitter amplitude. Arrivals are evenly
// spaced with ±30s of noise, so records land slightly out of submit
// order — enough to exercise the reorder window (displacement stays
// under DefaultReorderWindow for up to ~1.4M jobs per day), never
// enough to break strict streamed ingest at benchmark sizes.
const synthJitter = 30

// WriteSynthSWF streams a deterministic synthetic archive to w in
// canonical SWF form. Output is byte-for-byte reproducible for a
// given config: the generator draws from a seeded math/rand source,
// whose sequence the Go 1 compatibility promise pins.
func WriteSynthSWF(w io.Writer, cfg SynthConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bw := bufio.NewWriterSize(w, 1<<16)
	spanSec := int64(synthSpan / time.Second)
	fmt.Fprintf(bw, "; Version: 2\n")
	fmt.Fprintf(bw, "; Computer: synthetic\n")
	fmt.Fprintf(bw, "; MaxJobs: %d\n", cfg.Jobs)
	fmt.Fprintf(bw, "; Note: generated benchmark trace, seed %d, span %v\n", cfg.Seed, synthSpan)
	for i := 0; i < cfg.Jobs; i++ {
		submit := int64(i)*spanSec/int64(cfg.Jobs) + rng.Int63n(2*synthJitter+1) - synthJitter
		if submit < 0 {
			submit = 0
		}
		var runtime, nodes int64
		if rng.Intn(100) < 72 {
			// Short, narrow: an interactive session under the default
			// classify rule (≤10m, ≤4 nodes).
			runtime = 30 + rng.Int63n(271)
			nodes = 1 + rng.Int63n(2)
		} else {
			runtime = 300 + rng.Int63n(1501)
			nodes = 1 + rng.Int63n(3)
		}
		user := 1 + rng.Int63n(50)
		reqTime := runtime + runtime/4
		if _, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d 1 -1 -1 -1 -1 -1\n",
			i+1, submit, runtime, nodes, nodes, reqTime, user); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SynthTracePath writes the archive for cfg into dir (creating it)
// and returns the file path. The name encodes the config, so repeat
// calls with the same config reuse the cached file after verifying
// its size looks plausible; pass a fresh temp dir to force a rewrite.
func SynthTracePath(dir string, cfg SynthConfig) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("synth_j%d_s%d_p%d.swf", cfg.Jobs, cfg.Seed, int64(synthSpan/time.Second)))
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return path, nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := WriteSynthSWF(f, cfg); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}
