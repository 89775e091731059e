package crossbroker

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestNoReportFailsAsOther holds every committed BENCH_*.json report
// to the one failure account: each failed job is keyed in failed_by by
// the rule that ended it, so no failed_by map carries the catch-all
// key "other".
func TestNoReportFailsAsOther(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	maps := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var walk func(v any, path string)
		walk = func(v any, path string) {
			switch x := v.(type) {
			case map[string]any:
				for k, child := range x {
					if by, ok := child.(map[string]any); ok && k == "failed_by" {
						maps++
						if n, ok := by["other"]; ok {
							t.Errorf("%s: %s.failed_by counts %v jobs as other", f, path, n)
						}
					}
					walk(child, path+"."+k)
				}
			case []any:
				for _, child := range x {
					walk(child, path+"[]")
				}
			}
		}
		walk(doc, "")
	}
	// A glob that matched nothing, or reports that lost the field,
	// would pass vacuously.
	if maps == 0 {
		t.Fatalf("no failed_by map in %d BENCH_*.json reports", len(files))
	}
}
