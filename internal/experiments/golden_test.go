package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// goldenHash pins one deterministic driver run: the SHA-256 of its
// indented JSON point list and, where the driver is traced, of the
// merged JSONL event log of every cell.
type goldenHash struct {
	Points string `json:"points"`
	Trace  string `json:"trace,omitempty"`
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func hashRun(t *testing.T, points any, traces []trace.Trace) goldenHash {
	t.Helper()
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenHash{Points: sha(data)}
	if traces != nil {
		var b bytes.Buffer
		if err := trace.WriteJSONL(&b, traces); err != nil {
			t.Fatal(err)
		}
		g.Trace = sha(b.Bytes())
	}
	return g
}

// tracesOf collects each sweep point's event log, in point order.
func tracesOf[P any](pts []P, get func(P) trace.Trace) []trace.Trace {
	traces := make([]trace.Trace, 0, len(pts))
	for _, p := range pts {
		traces = append(traces, get(p))
	}
	return traces
}

// fig8Series is Fig8Case with its sample series spelled out (Series
// keeps them unexported), so every plotted point is hashed.
type fig8Series struct {
	Name    string
	CPU, IO []float64
}

// TestGoldenHashes replays every deterministic quick-mode driver and
// compares its output hashes with testdata/golden_hashes.json. The
// fixture was generated at the last commit that still carried the
// cooperative scheduling flows, once per engine, and the two sets
// agreed on every driver; it is the proof that deleting those flows
// changed no schedule. A deliberate behaviour change updates the
// fixture with the hashes this test prints.
func TestGoldenHashes(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_hashes.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenHash
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(t *testing.T) goldenHash
	}{
		{"table1", func(t *testing.T) goldenHash {
			var rows [][]TableIRow
			for _, sc := range []Scenario{Campus, IFCA} {
				r, err := TableI(TableIConfig{Runs: 2, Scenario: sc, Seed: 2006})
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, r)
			}
			return hashRun(t, rows, nil)
		}},
		{"load", func(t *testing.T) goldenHash {
			pts, err := LoadSweep([]float64{0, 0.25, 0.5, 0.75, 1.0}, 2006)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, nil)
		}},
		{"day", func(t *testing.T) goldenHash {
			rep, err := Day(2006)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, rep, nil)
		}},
		{"fig8", func(t *testing.T) goldenHash {
			cases, err := Fig8(Fig8Config{Iterations: 100})
			if err != nil {
				t.Fatal(err)
			}
			var out []fig8Series
			for _, c := range cases {
				out = append(out, fig8Series{c.Name, c.CPU.Values(), c.IO.Values()})
			}
			return hashRun(t, out, nil)
		}},
		{"ablation-lease", func(t *testing.T) goldenHash {
			res, err := LeaseSweep(nil, 6, 6, 2006)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, res, nil)
		}},
		{"ablation-policy", func(t *testing.T) goldenHash {
			res, err := SelectionPolicy(6, 6)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, res, nil)
		}},
		{"ablation-quantum", func(t *testing.T) goldenHash {
			res, err := QuantumSweep(nil, 50)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, res, nil)
		}},
		// The degree sweep's jobs carry a custom blocking Body.
		{"ablation-degree", func(t *testing.T) goldenHash {
			res, err := DegreeSweep([]int{1, 2, 4}, 4)
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, res, nil)
		}},
		{"chaos", func(t *testing.T) goldenHash {
			pts, err := ChaosSweep(ChaosConfig{Quick: true, Seed: 5, Traced: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, tracesOf(pts, func(p ChaosPoint) trace.Trace { return p.Trace }))
		}},
		{"chaos-delta-elastic", func(t *testing.T) goldenHash {
			pts, err := ChaosSweep(ChaosConfig{Quick: true, Seed: 5, Delta: true, elastic: true, Traced: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, tracesOf(pts, func(p ChaosPoint) trace.Trace { return p.Trace }))
		}},
		{"federation", func(t *testing.T) goldenHash {
			pts, err := FederationSweep(FederationConfig{Quick: true, Seed: 9, Traced: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, tracesOf(pts, func(p FederationPoint) trace.Trace { return p.Trace }))
		}},
		{"dataaware", func(t *testing.T) goldenHash {
			pts, err := DataAwareSweep(DataAwareConfig{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, nil)
		}},
		{"scale", func(t *testing.T) goldenHash {
			pts, err := ScaleSweep(ScaleConfig{
				Points: []int{100}, Seed: 3,
				ChurnRates: []int{64}, ChurnSites: 250,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Allocation counts belong to the implementation, not the
			// schedule; everything virtual-time and pass-shaped is pinned.
			for i := range pts {
				pts[i].AllocsPerPass, pts[i].BytesPerPass = 0, 0
			}
			return hashRun(t, pts, nil)
		}},
		{"replay-gwf", func(t *testing.T) goldenHash {
			pts, err := ReplaySweep(ReplayConfig{
				Source: fixtureSource("grid5000.gwf", workload.ReplayConfig{}), Seed: 7,
				Speedups: []float64{1, 4}, Traced: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, tracesOf(pts, func(p ReplayPoint) trace.Trace { return p.Trace }))
		}},
		// gridbench -exp replay -synth 10000: 8x16 grid, default speedups.
		{"replay-synth10k", func(t *testing.T) goldenHash {
			path, err := workload.SynthTracePath(t.TempDir(), workload.SynthConfig{Jobs: 10000, Seed: 2006})
			if err != nil {
				t.Fatal(err)
			}
			pts, err := ReplaySweep(ReplayConfig{
				Sites: 8, NodesPerSite: 16, Seed: 2006,
				Source: func(speedup float64) (workload.ReplayStream, error) {
					tr, err := workload.OpenTraceReader(path, workload.TraceReaderOptions{})
					if err != nil {
						return nil, err
					}
					return workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: speedup})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(t, pts, nil)
		}},
	}
	if len(want) != len(cases) {
		t.Errorf("fixture pins %d drivers, the table runs %d", len(want), len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := tc.run(t)
			if got != want[tc.name] {
				data, _ := json.Marshal(got)
				t.Errorf("hashes diverged from the fixture:\n got  %s\n want %+v", data, want[tc.name])
			}
		})
	}
}
