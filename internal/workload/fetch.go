package workload

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"
)

// Fetch downloads a public workload archive (Parallel Workloads
// Archive SWF, Grid Workloads Archive GWF, optionally gzip-compressed)
// into a local content-addressed cache and returns the cached file's
// path, ready for gridbench -exp replay -trace. The cache key pairs a
// hash of the URL (for lookup) with a hash of the decompressed content
// (so the name certifies the bytes), and a file only enters the cache
// after its content parses as a workload trace with at least one
// usable job — a truncated or garbled download is discarded with an
// error instead of poisoning later runs. A cached copy is re-validated
// on every hit and silently re-fetched if it no longer parses (e.g. a
// previous process died mid-write or the disk corrupted it).
func Fetch(rawURL string) (string, error) { return fetch(rawURL, fetchOptions{}) }

// fetch is Fetch with the cache directory and HTTP client that tests
// substitute.
func fetch(rawURL string, opts fetchOptions) (string, error) {
	opts.setDefaults()
	ext, err := archiveExt(rawURL)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return "", err
	}
	urlKey := shortHash(rawURL)

	// Cache lookup: any file stored under this URL's key. Validate it
	// again — a hit that stopped parsing is deleted and re-fetched.
	pattern := filepath.Join(opts.dir, urlKey+"-*"+ext)
	if matches, _ := filepath.Glob(pattern); len(matches) > 0 {
		cached := matches[0]
		if err := validateArchive(cached); err == nil {
			return cached, nil
		}
		os.Remove(cached)
	}

	resp, err := opts.client.Get(rawURL)
	if err != nil {
		return "", fmt.Errorf("workload: fetch %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("workload: fetch %s: %s", rawURL, resp.Status)
	}
	var body io.Reader = resp.Body
	if strings.EqualFold(path.Ext(urlPath(rawURL)), ".gz") {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return "", fmt.Errorf("workload: fetch %s: bad gzip stream: %w", rawURL, err)
		}
		defer gz.Close()
		body = gz
	}

	// Spool to a temp file in the cache dir (same filesystem, so the
	// final rename is atomic), hashing the decompressed content.
	tmp, err := os.CreateTemp(opts.dir, "fetch-*"+ext)
	if err != nil {
		return "", err
	}
	tmpPath := tmp.Name()
	discard := func() { tmp.Close(); os.Remove(tmpPath) }
	hash := sha256.New()
	if _, err := io.Copy(io.MultiWriter(tmp, hash), body); err != nil {
		discard()
		return "", fmt.Errorf("workload: fetch %s: %w", rawURL, err)
	}
	if err := tmp.Close(); err != nil {
		discard()
		return "", err
	}
	// The parse check is the download's integrity gate: a connection
	// cut mid-transfer leaves a truncated file that either fails to
	// parse or yields zero jobs, and either way never enters the cache.
	if err := validateArchive(tmpPath); err != nil {
		os.Remove(tmpPath)
		return "", fmt.Errorf("workload: fetch %s: archive does not parse (truncated download?): %w", rawURL, err)
	}
	final := filepath.Join(opts.dir, fmt.Sprintf("%s-%s%s", urlKey, hex.EncodeToString(hash.Sum(nil))[:16], ext))
	if err := os.Rename(tmpPath, final); err != nil {
		os.Remove(tmpPath)
		return "", err
	}
	return final, nil
}

// fetchOptions parametrizes fetch.
type fetchOptions struct {
	// dir is the cache directory (default: <user cache dir>/
	// gridbench-archives, falling back to the OS temp dir).
	dir string
	// client issues the download (default: http.Client with a 5-minute
	// timeout — public archive mirrors are slow, not hung).
	client *http.Client
}

func (o *fetchOptions) setDefaults() {
	if o.dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			base = os.TempDir()
		}
		o.dir = filepath.Join(base, "gridbench-archives")
	}
	if o.client == nil {
		o.client = &http.Client{Timeout: 5 * time.Minute}
	}
}

// archiveExt maps the URL to the cached file's extension — the
// trace-format selector OpenTraceReader keys on. A trailing .gz is
// stripped: the cache always stores decompressed bytes.
func archiveExt(rawURL string) (string, error) {
	p := urlPath(rawURL)
	if strings.EqualFold(path.Ext(p), ".gz") {
		p = strings.TrimSuffix(p, path.Ext(p))
	}
	ext := path.Ext(p)
	switch {
	case strings.EqualFold(ext, ".swf"):
		return ".swf", nil
	case strings.EqualFold(ext, ".gwf"):
		return ".gwf", nil
	}
	return "", fmt.Errorf("workload: fetch %s: unknown archive extension (want .swf or .gwf, optionally .gz)", rawURL)
}

// urlPath extracts the path component, tolerating unparseable URLs
// (the http client will reject those with a better error).
func urlPath(rawURL string) string {
	if u, err := url.Parse(rawURL); err == nil && u.Path != "" {
		return u.Path
	}
	return rawURL
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:12]
}

// validateArchive streams the whole file through the trace reader,
// requiring a clean EOF and at least one usable job.
func validateArchive(path string) error {
	tr, err := OpenTraceReader(path, TraceReaderOptions{})
	if err != nil {
		return err
	}
	defer tr.Close()
	usable := 0
	for {
		if _, err := tr.Next(); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		usable++
	}
	if usable == 0 {
		return fmt.Errorf("%w: %s", ErrNoUsableRecords, path)
	}
	return nil
}
