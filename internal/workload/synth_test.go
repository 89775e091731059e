package workload

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/workload/swf"
)

// The generator must be byte-for-byte deterministic: benchmarks and
// CI gates regenerate the archive instead of committing megabytes.
func TestSynthDeterministic(t *testing.T) {
	cfg := SynthConfig{Jobs: 500, Seed: 7}
	var a, b strings.Builder
	if err := WriteSynthSWF(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteSynthSWF(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two generations with the same config differ")
	}
	var c strings.Builder
	if err := WriteSynthSWF(&c, SynthConfig{Jobs: 500, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical archives")
	}
}

// Generated archives are valid strict SWF, survive strict streamed
// ingest (jitter displacement stays inside the default reorder
// window), and contain the advertised job count with a roughly
// 72/28 interactive/batch mix.
func TestSynthValidAndIngestible(t *testing.T) {
	cfg := SynthConfig{Jobs: 5000, Seed: 42}
	var sb strings.Builder
	if err := WriteSynthSWF(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	tr, err := swf.Parse(strings.NewReader(sb.String()), swf.Options{Strict: true})
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	if len(tr.Records) != cfg.Jobs {
		t.Fatalf("records = %d, want %d", len(tr.Records), cfg.Jobs)
	}

	rd := newTraceReader(strings.NewReader(sb.String()), FormatSWF, TraceReaderOptions{Strict: true})
	inter, total := 0, 0
	last := time.Duration(-1)
	for {
		j, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("strict streamed ingest: %v", err)
		}
		if j.Submit < last {
			t.Fatalf("stream not monotone: %v after %v", j.Submit, last)
		}
		last = j.Submit
		if interactive(j) {
			inter++
		}
		total++
	}
	if total != cfg.Jobs {
		t.Fatalf("streamed %d jobs, want %d", total, cfg.Jobs)
	}
	if frac := float64(inter) / float64(total); frac < 0.65 || frac > 0.80 {
		t.Fatalf("interactive fraction %.2f outside [0.65, 0.80]", frac)
	}
}

// SynthTracePath caches by config-encoding name and regenerates
// identical bytes.
func TestSynthTracePath(t *testing.T) {
	dir := t.TempDir()
	cfg := SynthConfig{Jobs: 200, Seed: 3}
	p1, err := SynthTracePath(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SynthTracePath(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("paths differ: %s vs %s", p1, p2)
	}
	if filepath.Dir(p1) != dir {
		t.Fatalf("path %s not under %s", p1, dir)
	}
	tr, err := OpenTraceReader(p1, TraceReaderOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if jobs := drainTraceReader(t, tr); len(jobs) != cfg.Jobs || tr.Dropped() != 0 {
		t.Fatalf("loaded %d jobs (%d dropped), want %d (0)", len(jobs), tr.Dropped(), cfg.Jobs)
	}
}
