package workload

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crossbroker/internal/workload/gwf"
	"crossbroker/internal/workload/scanio"
	"crossbroker/internal/workload/swf"
)

// This file is the one trace-ingest path: a TraceReader that
// normalizes, reorders (within a bound) and rebases records straight
// off the record iterators in swf/gwf, and a StreamReplay that slices
// and speed-scales that stream into Jobs, without ever materializing
// the trace. Memory is O(reorder window), independent of trace length,
// so million-job archives replay in a few MB. The materialized replay
// (parse everything, sort, slice) survives only as the test oracle in
// stream_test.go.

// ErrNoUsableRecords reports a trace whose records all lacked the
// fields replay needs.
var ErrNoUsableRecords = errors.New("workload: trace has no usable records")

// TraceFormat selects the archive dialect a TraceReader decodes.
type TraceFormat int

const (
	// FormatSWF is the Parallel Workloads Archive format.
	FormatSWF TraceFormat = iota
	// FormatGWF is the Grid Workloads Archive format.
	FormatGWF
)

// DefaultReorderWindow is the submit-time displacement (in records)
// a TraceReader tolerates by default. Archive logs are written nearly
// in submit order — the occasional late flush lands a record a few
// lines early — so a 1024-record window covers every published trace
// we replay while keeping ingest memory bounded.
const DefaultReorderWindow = 1024

// TraceReaderOptions configures streaming ingest.
type TraceReaderOptions struct {
	// Strict passes strict parsing through to the record parser and
	// additionally rejects records whose submit offset is out of order
	// beyond the reorder window.
	Strict bool
	// ReorderWindow bounds how far (in kept records) a record may
	// appear ahead of records that precede it in submit order and
	// still be sorted into place. 0 means DefaultReorderWindow;
	// negative disables reordering entirely (window 0).
	ReorderWindow int
}

func (o *TraceReaderOptions) setDefaults() {
	if o.ReorderWindow == 0 {
		o.ReorderWindow = DefaultReorderWindow
	} else if o.ReorderWindow < 0 {
		o.ReorderWindow = 0
	}
}

// rawRec carries the seven fields normalization consumes, in the
// order normalizeFields takes them.
type rawRec struct {
	id, submit, runtime, reqTime, procs, reqProcs, user int64
}

// pendEntry is one normalized record waiting in the reorder heap.
// seq is the input arrival index, the stability tiebreaker that makes
// heap-pop order identical to a stable sort of the whole trace.
type pendEntry struct {
	job  TraceJob
	user int64
	seq  int64
}

// TraceReader streams normalized TraceJobs from an archive in submit
// order, holding at most ReorderWindow+1 records in memory. It
// yields exactly what parsing the whole trace would (normalize/drop →
// stable sort by (submit, job ID) → rebase first arrival to zero), as
// long as no record is displaced more than ReorderWindow kept records
// from its sorted position. Past that bound, strict mode returns an
// error; tolerant mode clamps the stray submit to the last emitted
// offset (keeping the stream monotone) and counts it.
type TraceReader struct {
	read  func() (rawRec, error)
	close func() error
	opts  TraceReaderOptions

	heap    []pendEntry
	seq     int64
	drained bool
	err     error // sticky terminal error

	based bool
	base  time.Duration // first popped submit, subtracted from all
	last  time.Duration // last emitted rebased submit

	dropped int
	clamped int
	users   map[int64]string
}

// newTraceReader streams records of the given format from r.
func newTraceReader(r io.Reader, format TraceFormat, opts TraceReaderOptions) *TraceReader {
	opts.setDefaults()
	tr := &TraceReader{opts: opts, users: make(map[int64]string)}
	ropts := scanio.Options{Strict: opts.Strict}
	switch format {
	case FormatGWF:
		tr.read = rawReader(gwf.NewReader(r, ropts), func(rec gwf.Record) rawRec {
			return rawRec{rec.JobID, rec.Submit, rec.Runtime, rec.ReqTime, rec.Procs, rec.ReqProcs, rec.User}
		})
	default:
		tr.read = rawReader(swf.NewReader(r, ropts), func(rec swf.Record) rawRec {
			return rawRec{rec.JobID, rec.Submit, rec.Runtime, rec.ReqTime, rec.Procs, rec.ReqProcs, rec.User}
		})
	}
	return tr
}

// rawReader adapts a format's record reader to the fields
// normalization consumes.
func rawReader[R any](rd *scanio.Reader[R], raw func(R) rawRec) func() (rawRec, error) {
	return func() (rawRec, error) {
		rec, err := rd.Next()
		if err != nil {
			return rawRec{}, err
		}
		return raw(rec), nil
	}
}

// OpenTraceReader opens an archive file, picking the format from the
// extension (.swf / .gwf, case-insensitive). Close releases the file.
func OpenTraceReader(path string, opts TraceReaderOptions) (*TraceReader, error) {
	var format TraceFormat
	switch ext := filepath.Ext(path); {
	case strings.EqualFold(ext, ".swf"):
		format = FormatSWF
	case strings.EqualFold(ext, ".gwf"):
		format = FormatGWF
	default:
		return nil, fmt.Errorf("workload: %s: unknown trace extension (want .swf or .gwf)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr := newTraceReader(f, format, opts)
	tr.close = f.Close
	return tr, nil
}

// Next returns the next normalized job in submit order. It returns
// io.EOF at the end of the trace and is sticky after any error.
func (tr *TraceReader) Next() (TraceJob, error) {
	if tr.err != nil {
		return TraceJob{}, tr.err
	}
	// Keep the heap one past the window so each pop has seen every
	// record that could sort before it (within the displacement bound).
	for !tr.drained && len(tr.heap) <= tr.opts.ReorderWindow {
		raw, err := tr.read()
		if err == io.EOF {
			tr.drained = true
			break
		}
		if err != nil {
			tr.err = err
			return TraceJob{}, err
		}
		j, ok := normalizeFields(raw.id, raw.submit, raw.runtime, raw.reqTime, raw.procs, raw.reqProcs)
		if !ok {
			tr.dropped++
			continue
		}
		tr.push(pendEntry{job: j, user: raw.user, seq: tr.seq})
		tr.seq++
	}
	if len(tr.heap) == 0 {
		tr.err = io.EOF
		return TraceJob{}, io.EOF
	}
	e := tr.pop()
	if !tr.based {
		tr.based = true
		tr.base = e.job.Submit
	}
	sub := e.job.Submit - tr.base
	if sub < tr.last {
		if tr.opts.Strict {
			tr.err = fmt.Errorf("workload: job %d submitted %v before the stream position — out of order beyond the %d-record reorder window",
				e.job.ID, tr.last-sub, tr.opts.ReorderWindow)
			return TraceJob{}, tr.err
		}
		tr.clamped++
		sub = tr.last
	}
	tr.last = sub
	e.job.Submit = sub
	e.job.User = tr.intern(e.user)
	return e.job, nil
}

// Dropped reports how many records normalization discarded so far.
func (tr *TraceReader) Dropped() int { return tr.dropped }

// Close releases the underlying file, if the reader owns one.
func (tr *TraceReader) Close() error {
	if tr.close != nil {
		return tr.close()
	}
	return nil
}

func (tr *TraceReader) intern(user int64) string {
	s, ok := tr.users[user]
	if !ok {
		s = traceUser(user)
		tr.users[user] = s
	}
	return s
}

// The reorder heap is hand-rolled over a plain slice: container/heap
// would box every entry through its interface methods, an allocation
// per record on the ingest hot path.

func entryLess(a, b pendEntry) bool {
	if a.job.Submit != b.job.Submit {
		return a.job.Submit < b.job.Submit
	}
	if a.job.ID != b.job.ID {
		return a.job.ID < b.job.ID
	}
	return a.seq < b.seq
}

func (tr *TraceReader) push(e pendEntry) {
	tr.heap = append(tr.heap, e)
	i := len(tr.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(tr.heap[i], tr.heap[parent]) {
			break
		}
		tr.heap[i], tr.heap[parent] = tr.heap[parent], tr.heap[i]
		i = parent
	}
}

func (tr *TraceReader) pop() pendEntry {
	top := tr.heap[0]
	n := len(tr.heap) - 1
	tr.heap[0] = tr.heap[n]
	tr.heap = tr.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryLess(tr.heap[l], tr.heap[min]) {
			min = l
		}
		if r < n && entryLess(tr.heap[r], tr.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		tr.heap[i], tr.heap[min] = tr.heap[min], tr.heap[i]
		i = min
	}
	return top
}

// ReplayStream is a job stream over a recorded trace whose ingest can
// fail mid-flight and may own a file handle. Callers must check Err
// once Next reports exhaustion: a parse or ordering error ends the
// stream early and only surfaces there.
type ReplayStream interface {
	// Next yields a job plus the delay since the previous arrival, and
	// false once the stream is exhausted.
	Next() (Job, time.Duration, bool)
	// Err returns the terminal ingest error, nil after a clean end.
	Err() error
	// Close releases the underlying source.
	Close() error
}

// StreamReplay slices the [StartHour, EndHour) window, rebases
// arrivals onto the window start and divides gaps by the speedup, one
// record at a time. It yields exactly the (Job, delay) sequence the
// materialized oracle in stream_test.go yields whenever the trace is
// within the reader's reorder bound.
type StreamReplay struct {
	tr         *TraceReader
	cfg        ReplayConfig
	start, end time.Duration
	prev       time.Duration
	count      int
	err        error
}

// NewStreamReplay wraps a TraceReader in window slicing and arrival
// scaling. Window bounds must be ordered and Speedup a non-negative
// finite factor.
func NewStreamReplay(tr *TraceReader, cfg ReplayConfig) (*StreamReplay, error) {
	cfg.setDefaults()
	if cfg.Speedup < 0 || math.IsNaN(cfg.Speedup) || math.IsInf(cfg.Speedup, 0) {
		return nil, fmt.Errorf("workload: replay speedup %v (want a positive finite factor)", cfg.Speedup)
	}
	if cfg.StartHour < 0 {
		return nil, fmt.Errorf("workload: replay window start %vh before the trace", cfg.StartHour)
	}
	if cfg.EndHour > 0 && cfg.EndHour <= cfg.StartHour {
		return nil, fmt.Errorf("workload: empty replay window [%vh, %vh)", cfg.StartHour, cfg.EndHour)
	}
	start := time.Duration(cfg.StartHour * float64(time.Hour))
	end := time.Duration(math.MaxInt64)
	if cfg.EndHour > 0 {
		end = time.Duration(cfg.EndHour * float64(time.Hour))
	}
	return &StreamReplay{tr: tr, cfg: cfg, start: start, end: end, prev: start}, nil
}

// Next yields the next job and the scaled delay before its arrival,
// or ok=false at the end of the window, the end of the trace, or an
// ingest error (see Err).
func (s *StreamReplay) Next() (Job, time.Duration, bool) {
	if s.err != nil {
		return Job{}, 0, false
	}
	for {
		tj, err := s.tr.Next()
		if err == io.EOF {
			return Job{}, 0, false
		}
		if err != nil {
			s.err = err
			return Job{}, 0, false
		}
		if tj.Submit < s.start {
			continue
		}
		if tj.Submit >= s.end {
			// Arrivals are monotone, so the window is over; drain no
			// further.
			return Job{}, 0, false
		}
		gap := scaleGap(tj.Submit-s.prev, s.cfg.Speedup)
		s.prev = tj.Submit
		s.count++
		j := Job{Kind: BatchJob, User: tj.User, CPU: tj.Runtime, Nodes: tj.Nodes, TraceID: tj.ID}
		if interactive(tj) {
			j.Kind = InteractiveJob
			j.PerformanceLoss = interactivePL
		}
		return j, gap, true
	}
}

// Err returns the ingest error that ended the stream, if any.
func (s *StreamReplay) Err() error { return s.err }

// Close releases the underlying trace source.
func (s *StreamReplay) Close() error { return s.tr.Close() }
