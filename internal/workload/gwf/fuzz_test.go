package gwf

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// seedCorpus covers valid records, truncated records, -1-riddled
// records, string-field quirks and numeric edge cases.
var seedCorpus = []string{
	sample,
	"",
	"# Version: 2.0\n",
	"1 0 5 300 1 -1 -1 1 3600 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n",
	"1 0 5\n", // truncated
	strings.Repeat("-1 ", 29) + "\n",
	strings.Repeat("-1 ", 40) + "\n", // surplus
	"x y z\n",
	"1e300 NaN Inf -Inf 1.5 0.25 -2 9223372036854775808 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 NaN Inf -1 -1 # ; -1 -1 -1 -1 -1\n",
	"#\n##\n# :\n# a:b\n",
	"\t 3 \t 4 \n\n",
	// Out-of-order submit offsets (stream ingest reorders these).
	"1 700 5 60 1 -1 -1 1 -1 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n" +
		"2 0 5 60 1 -1 -1 1 -1 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n",
	// Header directives interleaved between records.
	"# Version: 2.0\n1 0 5 60 1 -1 -1 1 -1 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n" +
		"# Site: g5k\n2 9 5 60 1 -1 -1 1 -1 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n",
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

// FuzzParseGWF asserts the tolerant parser never panics and that
// parse→serialize→parse is a fixed point whose canonical form even
// passes the strict parser.
func FuzzParseGWF(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(strings.NewReader(src), Options{})
		if err != nil {
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
	})
}
