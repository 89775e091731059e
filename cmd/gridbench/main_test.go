package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins that a command line naming nothing to
// run fails loudly instead of succeeding vacuously: an unknown -exp
// value lists the valid ones, and the removed -engine flag is a parse
// error, so scripts written against it stop.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tabel1"}, `unknown experiment "tabel1" (valid: table1, load, day,`},
		{[]string{"-exp", ""}, `unknown experiment ""`},
		{[]string{"-exp", "replay", "-engine", "goroutine"}, "flag provided but not defined: -engine"},
	} {
		var stderr bytes.Buffer
		if code := realMain(tc.args, &stderr); code != 2 {
			t.Errorf("gridbench %v exited %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("gridbench %v stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}
