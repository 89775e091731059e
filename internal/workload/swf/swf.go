// Package swf parses the Standard Workload Format used by the
// Parallel Workloads Archive: one job per line, 18 whitespace-
// separated numeric fields, with `;`-prefixed header comments that may
// carry `Key: value` directives (UnixStartTime, MaxNodes, ...).
// Missing values are encoded as -1 throughout.
//
// This package holds only the SWF column table; the line format
// (reader, tolerant/strict repair, directives, errors, canonical
// serializer) is scanio's, shared with GWF.
package swf

import (
	"io"
	"strconv"

	"crossbroker/internal/workload/scanio"
)

// NumFields is the number of fields in one SWF record.
const NumFields = 18

// Missing is the SWF encoding for an absent value.
const Missing = scanio.Missing

// Record is one SWF job entry, fields in standard order.
type Record struct {
	// JobID is field 1, the job number.
	JobID int64
	// Submit is field 2, seconds since the trace start.
	Submit int64
	// Wait is field 3, queue wait in seconds.
	Wait int64
	// Runtime is field 4, wall-clock runtime in seconds.
	Runtime int64
	// Procs is field 5, processors actually allocated.
	Procs int64
	// AvgCPU is field 6, average CPU seconds used (may be fractional).
	AvgCPU float64
	// UsedMem is field 7, used memory in KB per processor.
	UsedMem int64
	// ReqProcs is field 8, requested processors.
	ReqProcs int64
	// ReqTime is field 9, requested wall-clock time in seconds.
	ReqTime int64
	// ReqMem is field 10, requested memory in KB per processor.
	ReqMem int64
	// Status is field 11 (1 completed, 0 failed, 5 cancelled, ...).
	Status int64
	// User is field 12, a numeric user ID.
	User int64
	// Group is field 13, a numeric group ID.
	Group int64
	// Executable is field 14, an application number.
	Executable int64
	// Queue is field 15, a queue number.
	Queue int64
	// Partition is field 16, a partition number.
	Partition int64
	// PrevJob is field 17, the preceding job number.
	PrevJob int64
	// ThinkTime is field 18, seconds from the preceding job's
	// completion to this job's submittal.
	ThinkTime int64
}

// dialect is SWF's column table over the shared line format.
var dialect = &scanio.Dialect[Record]{
	Name:      "swf",
	Comment:   ";",
	NumFields: NumFields,
	Column:    setColumn,
	Fields:    Record.fields,
}

// The line-format types are scanio's, shared with GWF.
type (
	// Directive is one `; Key: value` header line, order-preserved.
	Directive = scanio.Directive
	// Trace is a parsed SWF file.
	Trace = scanio.Trace[Record]
	// Options controls parsing.
	Options = scanio.Options
	// A ParseError reports where a strict parse failed.
	ParseError = scanio.ParseError
	// Reader streams SWF records one at a time.
	Reader = scanio.Reader[Record]
)

// NewReader returns a streaming reader over r.
func NewReader(r io.Reader, opts Options) *Reader { return dialect.NewReader(r, opts) }

// Parse reads a whole SWF stream.
func Parse(r io.Reader, opts Options) (*Trace, error) { return dialect.Parse(r, opts) }

// Format returns the canonical serialization as a string.
func Format(t *Trace) string { return dialect.Format(t) }

// setColumn stores SWF column c.Index: field 6 (AvgCPU) is a float,
// every other field an integer.
func setColumn(r *Record, c *scanio.Column) error {
	var err error
	switch c.Index {
	case 5:
		r.AvgCPU, err = c.Num()
	case 0:
		r.JobID, err = c.Int()
	case 1:
		r.Submit, err = c.Int()
	case 2:
		r.Wait, err = c.Int()
	case 3:
		r.Runtime, err = c.Int()
	case 4:
		r.Procs, err = c.Int()
	case 6:
		r.UsedMem, err = c.Int()
	case 7:
		r.ReqProcs, err = c.Int()
	case 8:
		r.ReqTime, err = c.Int()
	case 9:
		r.ReqMem, err = c.Int()
	case 10:
		r.Status, err = c.Int()
	case 11:
		r.User, err = c.Int()
	case 12:
		r.Group, err = c.Int()
	case 13:
		r.Executable, err = c.Int()
	case 14:
		r.Queue, err = c.Int()
	case 15:
		r.Partition, err = c.Int()
	case 16:
		r.PrevJob, err = c.Int()
	case 17:
		r.ThinkTime, err = c.Int()
	}
	return err
}

// fields returns the record in canonical textual field order.
func (r Record) fields() []string {
	return []string{
		strconv.FormatInt(r.JobID, 10),
		strconv.FormatInt(r.Submit, 10),
		strconv.FormatInt(r.Wait, 10),
		strconv.FormatInt(r.Runtime, 10),
		strconv.FormatInt(r.Procs, 10),
		strconv.FormatFloat(r.AvgCPU, 'g', -1, 64),
		strconv.FormatInt(r.UsedMem, 10),
		strconv.FormatInt(r.ReqProcs, 10),
		strconv.FormatInt(r.ReqTime, 10),
		strconv.FormatInt(r.ReqMem, 10),
		strconv.FormatInt(r.Status, 10),
		strconv.FormatInt(r.User, 10),
		strconv.FormatInt(r.Group, 10),
		strconv.FormatInt(r.Executable, 10),
		strconv.FormatInt(r.Queue, 10),
		strconv.FormatInt(r.Partition, 10),
		strconv.FormatInt(r.PrevJob, 10),
		strconv.FormatInt(r.ThinkTime, 10),
	}
}
