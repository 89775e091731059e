package swf

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// seedCorpus covers valid records, truncated records, -1-riddled
// records, directive soup and numeric edge cases.
var seedCorpus = []string{
	sample,
	"",
	"; Version: 2\n",
	"1 0 10 3600 16 3590.5 -1 16 43200 -1 1 5 1 -1 1 1 -1 -1\n",
	"1 0 10\n", // truncated
	"-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n",         // all missing
	"2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n", // surplus
	"x y z\n", // garbage
	"1e300 NaN Inf -Inf 1.5 0.25 -2 9223372036854775807 9223372036854775808 0 0 0 0 0 0 0 0 0\n",
	";\n;;\n; :\n; a:b\n", // directive edge cases
	"\t 3 \t 4 \n\n",      // odd whitespace
	"0.5 -0.5 -0 1e-300 7 7 7 7 7 7 7 7 7 7 7 7 7 7\n",
	// Out-of-order submit offsets (stream ingest reorders these).
	"1 900 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 0 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"3 450 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n",
	// Header directives interleaved between records.
	"; Version: 2\n1 0 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"; MaxNodes: 4\n2 5 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n; MaxJobs: 2\n",
}

// streamAll drains a Reader, returning the records alongside any
// terminal error (io.EOF excluded).
func streamAll(src string, opts Options) ([]Record, []Directive, error) {
	r := NewReader(strings.NewReader(src), opts)
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, r.Directives(), nil
		}
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}
}

// FuzzParseSWF asserts the tolerant parser never panics and that
// parse→serialize→parse is a fixed point: the canonical form of any
// parse reparses (strictly, even) to an identical trace.
func FuzzParseSWF(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(strings.NewReader(src), Options{})
		if err != nil {
			// Only scanner-level failures (absurdly long lines) may
			// error in tolerant mode; they must be real errors.
			if tr != nil {
				t.Fatal("non-nil trace alongside error")
			}
			return
		}
		out := Format(tr)
		tr2, err := Parse(strings.NewReader(out), Options{Strict: true})
		if err != nil {
			t.Fatalf("canonical form rejected by strict parse: %v\ninput: %q\ncanonical: %q", err, src, out)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("parse→serialize→parse diverged\ninput: %q\ncanonical: %q\nfirst: %+v\nsecond: %+v", src, out, tr, tr2)
		}
		if out2 := Format(tr2); out2 != out {
			t.Fatalf("second serialization diverged:\n%q\n%q", out, out2)
		}
		// Strict parses, when they succeed, must agree with tolerant.
		if st, err := Parse(strings.NewReader(src), Options{Strict: true}); err == nil {
			if !reflect.DeepEqual(st, tr) {
				t.Fatalf("strict and tolerant parses of valid input diverged\n%+v\n%+v", st, tr)
			}
		}
		// Stream ≡ batch: the record iterator must yield exactly the
		// batch parse, records and directives both.
		recs, dirs, err := streamAll(src, Options{})
		if err != nil {
			t.Fatalf("stream errored where batch parsed: %v", err)
		}
		if !reflect.DeepEqual(recs, tr.Records) || !reflect.DeepEqual(dirs, tr.Directives) {
			t.Fatalf("stream diverged from batch\ninput: %q", src)
		}
		_ = strings.Count(out, "\n")
	})
}
