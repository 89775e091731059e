package workload

import (
	"bytes"
	"compress/gzip"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fetchServer serves body at every path and counts requests.
func fetchServer(t *testing.T, body []byte) (*httptest.Server, *int) {
	t.Helper()
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func fixtureBytes(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFetchCachesAndReuses(t *testing.T) {
	body := fixtureBytes(t, "ctc_sp2.swf")
	srv, hits := fetchServer(t, body)
	opts := fetchOptions{dir: t.TempDir(), client: srv.Client()}

	p1, err := fetch(srv.URL+"/archives/ctc_sp2.swf", opts)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(p1) != ".swf" {
		t.Fatalf("cached path %s does not keep the .swf extension", p1)
	}
	got, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("cached bytes differ from served archive")
	}
	// The cached file must drive the replay reader directly.
	if err := validateArchive(p1); err != nil {
		t.Fatal(err)
	}

	p2, err := fetch(srv.URL+"/archives/ctc_sp2.swf", opts)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatalf("second fetch returned %s, want cached %s", p2, p1)
	}
	if *hits != 1 {
		t.Fatalf("server hit %d times, want 1 (second fetch must come from cache)", *hits)
	}
}

func TestFetchGzip(t *testing.T) {
	raw := fixtureBytes(t, "grid5000.gwf")
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	srv, _ := fetchServer(t, buf.Bytes())
	p, err := fetch(srv.URL+"/gwa/grid5000.gwf.gz", fetchOptions{dir: t.TempDir(), client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(p) != ".gwf" {
		t.Fatalf("cached path %s should store decompressed bytes under .gwf", p)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("cached bytes are not the decompressed archive")
	}
}

func TestFetchRejectsUnparseableDownload(t *testing.T) {
	srv, _ := fetchServer(t, []byte("this is not a workload archive\n"))
	dir := t.TempDir()
	_, err := fetch(srv.URL+"/bogus.swf", fetchOptions{dir: dir, client: srv.Client()})
	if err == nil || !strings.Contains(err.Error(), "does not parse") {
		t.Fatalf("unparseable download accepted: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("bad download left %d file(s) in the cache", len(entries))
	}
}

// An archive that parses but holds no record replay can use is refused
// with ErrNoUsableRecords.
func TestFetchRejectsArchiveWithoutUsableJobs(t *testing.T) {
	srv, _ := fetchServer(t, []byte("1 0 -1 -1 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"))
	_, err := fetch(srv.URL+"/empty.swf", fetchOptions{dir: t.TempDir(), client: srv.Client()})
	if !errors.Is(err, ErrNoUsableRecords) {
		t.Fatalf("Fetch err = %v, want ErrNoUsableRecords", err)
	}
}

func TestFetchRefetchesCorruptedCache(t *testing.T) {
	body := fixtureBytes(t, "ctc_sp2.swf")
	srv, hits := fetchServer(t, body)
	opts := fetchOptions{dir: t.TempDir(), client: srv.Client()}
	url := srv.URL + "/ctc_sp2.swf"

	p, err := fetch(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate on-disk corruption: the cached copy stops parsing, so
	// the next fetch must discard it and download again.
	if err := os.WriteFile(p, []byte("corrupted\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := fetch(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *hits != 2 {
		t.Fatalf("server hit %d times, want 2 (corrupt cache entry must be re-fetched)", *hits)
	}
	if err := validateArchive(p2); err != nil {
		t.Fatal(err)
	}
}

func TestFetchUnknownExtension(t *testing.T) {
	if _, err := fetch("http://example.invalid/trace.csv", fetchOptions{dir: t.TempDir()}); err == nil {
		t.Fatal("unknown extension accepted")
	}
}
