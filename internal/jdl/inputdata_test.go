package jdl

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestInputDataParse(t *testing.T) {
	j, err := ParseJob(`
		Executable = "ana";
		InputData = {"cal.db", "events.raw"};
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.InputData, []string{"cal.db", "events.raw"}) {
		t.Fatalf("InputData = %v", j.InputData)
	}
}

func TestInputDataAbsent(t *testing.T) {
	j, err := ParseJob(`Executable = "ana";`)
	if err != nil {
		t.Fatal(err)
	}
	if j.InputData != nil {
		t.Fatalf("InputData = %v, want nil", j.InputData)
	}
}

func TestInputDataValidation(t *testing.T) {
	cases := []string{
		`Executable = "x"; InputData = "cal.db";`,        // not a list
		`Executable = "x"; InputData = {"cal.db", 5};`,   // non-string member
		`Executable = "x"; InputData = {""};`,            // empty name
		`Executable = "x"; InputData = {"a", "b", "a"};`, // duplicate
		`Executable = "x"; InputData = {{"nested"}};`,    // nested list
	}
	for _, src := range cases {
		if _, err := ParseJob(src); !errors.Is(err, ErrValidation) {
			t.Errorf("ParseJob(%q) err = %v, want ErrValidation", src, err)
		}
	}
}

func TestInputDataRoundTrip(t *testing.T) {
	src := `Executable = "ana"; JobType = "interactive"; InputData = {"d2", "d0", "d1"};`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJob(d.String())
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	// Order is user-meaningful and must survive the round trip verbatim.
	if !reflect.DeepEqual(back.InputData, []string{"d2", "d0", "d1"}) {
		t.Fatalf("round-tripped InputData = %v", back.InputData)
	}
}

// FuzzInputData drives arbitrary content through the InputData list:
// whenever a descriptor parses into a valid job, formatting it and
// reparsing must reproduce the same dataset list.
func FuzzInputData(f *testing.F) {
	f.Add(`{"cal.db", "events.raw"}`)
	f.Add(`{}`)
	f.Add(`{""}`)
	f.Add(`{"a", "a"}`)
	f.Add(`{"with \"quotes\"", "and\nnewlines"}`)
	f.Add(`{"x"}; Rank = other.FreeCPUs`)
	f.Add(`"not-a-list"`)
	f.Add(`{1, 2, 3}`)
	f.Fuzz(func(t *testing.T, list string) {
		src := `Executable = "ana"; InputData = ` + list + `;`
		j, err := ParseJob(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, name := range j.InputData {
			if name == "" {
				t.Fatalf("validation admitted an empty dataset name: %q", list)
			}
		}
		seen := map[string]bool{}
		for _, name := range j.InputData {
			if seen[name] {
				t.Fatalf("validation admitted duplicate dataset %q: %q", name, list)
			}
			seen[name] = true
		}
		d, err := Parse(src)
		if err != nil {
			t.Fatalf("ParseJob accepted what Parse rejects: %v", err)
		}
		out := d.String()
		back, err := ParseJob(out)
		if err != nil {
			t.Fatalf("formatted job failed to reparse: %v\nsource: %s\noutput: %s", err, src, out)
		}
		if !reflect.DeepEqual(back.InputData, j.InputData) {
			t.Fatalf("InputData diverged across round trip: %v vs %v\noutput: %s",
				j.InputData, back.InputData, out)
		}
		if len(j.InputData) > 0 && !strings.Contains(out, "InputData") {
			t.Fatalf("descriptor dropped InputData: %s", out)
		}
	})
}
