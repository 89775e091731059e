package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// tracedRun is a few lines of a traced federation and delta-chaos run
// (gridbench -exp federation / chaos -delta -traceout), covering every
// optional field.
const tracedRun = `{"trace":"mesh/k=1/rate=0","seq":0,"t_ns":0,"job":"bA-000001","kind":"submitted","detail":"batch"}
{"trace":"mesh/k=1/rate=0","seq":1,"t_ns":510600000,"job":"bA-000001","kind":"matched","site":"shared-s00","rank":1}
{"trace":"mesh/k=1/rate=0","seq":2,"t_ns":510600000,"job":"bA-000001","kind":"lease-acquired","site":"shared-s00","n":1}
{"trace":"mesh/k=1/rate=0","seq":50,"t_ns":195510600000,"job":"bA-000008","kind":"offload-sent","site":"bA","detail":"bB"}
{"trace":"mesh/k=1/rate=0","seq":51,"t_ns":195548368000,"job":"bA-000008","kind":"offload-accepted","site":"bA","detail":"bB"}
{"trace":"mesh/k=1/rate=1","seq":88,"t_ns":564776791826,"kind":"fault-injected","dur_ns":208464775894,"detail":"infosys-partition injected"}
{"trace":"rate=0","seq":0,"t_ns":0,"kind":"delta-published","site":"s00","n":2,"epoch":1,"detail":"added"}
{"trace":"rate=0","seq":5,"t_ns":771200000,"job":"cb-000001","kind":"matched","site":"s03","rank":2,"dur_ns":771200000,"epoch":4}
`

// FuzzParseJSONL holds the JSONL parser to three properties on
// arbitrary bytes: it never panics; whatever it accepts reaches a fixed
// point after one write, ParseJSONL(WriteJSONL(ParseJSONL(x))) ==
// ParseJSONL(x); and writing that fixed point again gives the same
// bytes.
func FuzzParseJSONL(f *testing.F) {
	f.Add([]byte(tracedRun))
	f.Add([]byte(""))
	f.Add([]byte("\n\n" + `{"seq":3,"t_ns":7,"kind":"done","job":"j1"}` + "\n\n"))
	f.Add([]byte(`{"seq":0,"t_ns":0,"kind":"no-such-kind"}` + "\n"))
	f.Add([]byte(`{"trace":"a","seq":0,"t_ns":0,"kind":"submitted","job":"j1"}
{"trace":"b","seq":0,"t_ns":0,"kind":"submitted","job":"j2"}
{"trace":"a","seq":1,"t_ns":5,"kind":"done","job":"j1"}
{"seq":9,"t_ns":9,"kind":"site-crashed","site":"s0"}
{"trace":"b","seq":1,"t_ns":6,"kind":"failed","job":"j2","detail":"why"}
`))
	f.Fuzz(func(t *testing.T, src []byte) {
		first, err := ParseJSONL(bytes.NewReader(src))
		if err != nil {
			return
		}
		var out1 bytes.Buffer
		if err := WriteJSONL(&out1, first); err != nil {
			t.Fatalf("writing an accepted stream: %v", err)
		}
		second, err := ParseJSONL(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing the written stream: %v\n%s", err, out1.Bytes())
		}
		if !reflect.DeepEqual(second, first) {
			t.Fatalf("not a fixed point:\nfirst  %+v\nsecond %+v", first, second)
		}
		var out2 bytes.Buffer
		if err := WriteJSONL(&out2, second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out2.Bytes(), out1.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", out1.Bytes(), out2.Bytes())
		}
	})
}
