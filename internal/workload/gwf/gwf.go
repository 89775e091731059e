// Package gwf parses the Grid Workload Format of the Grid Workloads
// Archive (Iosup et al.): a superset of the Standard Workload Format
// with 29 whitespace-separated fields per job — the 18 SWF-like
// numeric fields reordered for grids (site IDs instead of preceding-
// job links) plus grid-specific string fields (job structure, resource
// descriptions, virtual organization, project). Header comments start
// with `#` and may carry `Key: value` directives. Missing values are
// encoded as -1.
//
// This package holds only the GWF column table; the line format
// (reader, tolerant/strict repair, directives, errors, canonical
// serializer) is scanio's, shared with SWF. String fields are kept
// verbatim.
package gwf

import (
	"io"
	"strconv"

	"crossbroker/internal/workload/scanio"
)

// NumFields is the number of fields in one GWF record.
const NumFields = 29

// Missing is the GWF encoding for an absent value.
const Missing = scanio.Missing

// missingStr is the canonical spelling of a missing string field.
const missingStr = "-1"

// Record is one GWF job entry, fields in standard order.
type Record struct {
	// JobID is field 1.
	JobID int64
	// Submit is field 2, seconds since the trace start.
	Submit int64
	// Wait is field 3, queue wait in seconds.
	Wait int64
	// Runtime is field 4, wall-clock runtime in seconds.
	Runtime int64
	// Procs is field 5, processors actually allocated.
	Procs int64
	// AvgCPU is field 6, average CPU seconds used.
	AvgCPU float64
	// UsedMem is field 7, used memory in KB.
	UsedMem int64
	// ReqProcs is field 8, requested processors.
	ReqProcs int64
	// ReqTime is field 9, requested wall-clock seconds.
	ReqTime int64
	// ReqMem is field 10, requested memory in KB.
	ReqMem int64
	// Status is field 11 (1 completed, 0 failed, 5 cancelled, ...).
	Status int64
	// User is field 12, a numeric user ID.
	User int64
	// Group is field 13, a numeric group ID.
	Group int64
	// Executable is field 14, an application ID.
	Executable int64
	// Queue is field 15, a queue ID.
	Queue int64
	// Partition is field 16, a partition ID.
	Partition int64
	// OrigSite is field 17, the submission site ID.
	OrigSite int64
	// LastRunSite is field 18, the (last) execution site ID.
	LastRunSite int64
	// Structure is field 19, the job structure (UNITARY, BOT, ...).
	Structure string
	// StructureParams is field 20, structure parameters.
	StructureParams string
	// UsedNetwork is field 21, network used in KB/s.
	UsedNetwork float64
	// UsedDisk is field 22, local disk space used in MB.
	UsedDisk float64
	// UsedResources is field 23, an opaque resource-usage list.
	UsedResources string
	// ReqPlatform is field 24, the requested platform.
	ReqPlatform string
	// ReqNetwork is field 25, requested network in KB/s.
	ReqNetwork float64
	// ReqDisk is field 26, requested local disk space in MB.
	ReqDisk float64
	// ReqResources is field 27, an opaque resource-request list.
	ReqResources string
	// VO is field 28, the virtual organization ID.
	VO string
	// Project is field 29, the project ID.
	Project string
}

// dialect is GWF's column table over the shared line format.
var dialect = &scanio.Dialect[Record]{
	Name:      "gwf",
	Comment:   "#",
	NumFields: NumFields,
	Column:    setColumn,
	Fields:    Record.fields,
}

// The line-format types are scanio's, shared with SWF.
type (
	// Directive is one `# Key: value` header line, order-preserved.
	Directive = scanio.Directive
	// Trace is a parsed GWF file.
	Trace = scanio.Trace[Record]
	// Options controls parsing.
	Options = scanio.Options
	// A ParseError reports where a strict parse failed.
	ParseError = scanio.ParseError
	// Reader streams GWF records one at a time.
	Reader = scanio.Reader[Record]
)

// NewReader returns a streaming reader over r.
func NewReader(r io.Reader, opts Options) *Reader { return dialect.NewReader(r, opts) }

// Parse reads a whole GWF stream.
func Parse(r io.Reader, opts Options) (*Trace, error) { return dialect.Parse(r, opts) }

// Write serializes the trace canonically.
func Write(w io.Writer, t *Trace) error { return dialect.Write(w, t) }

// Format returns the canonical serialization as a string.
func Format(t *Trace) string { return dialect.Format(t) }

// setColumn stores GWF column c.Index: fields 19-20, 23-24 and 27-29
// are strings, 6, 21-22 and 25-26 floats, the rest integers. A string
// column's text is a view of the line; the last column, which scanio
// stores after all others, copies the seven out of it (keepStrings).
func setColumn(r *Record, c *scanio.Column) error {
	var err error
	switch c.Index {
	case 18:
		r.Structure = c.Tok
	case 19:
		r.StructureParams = c.Tok
	case 22:
		r.UsedResources = c.Tok
	case 23:
		r.ReqPlatform = c.Tok
	case 26:
		r.ReqResources = c.Tok
	case 27:
		r.VO = c.Tok
	case 28:
		r.Project = c.Tok
		r.keepStrings()
	case 5:
		r.AvgCPU, err = c.Num()
	case 20:
		r.UsedNetwork, err = c.Num()
	case 21:
		r.UsedDisk, err = c.Num()
	case 24:
		r.ReqNetwork, err = c.Num()
	case 25:
		r.ReqDisk, err = c.Num()
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
		r.OrigSite, err = c.Int()
	case 17:
		r.LastRunSite, err = c.Int()
	}
	return err
}

// keepStrings copies the record's string columns out of the line they
// view, all seven into one allocation. "-1", the usual value, becomes
// the constant and costs none.
func (r *Record) keepStrings() {
	fields := [...]*string{&r.Structure, &r.StructureParams, &r.UsedResources,
		&r.ReqPlatform, &r.ReqResources, &r.VO, &r.Project}
	var buf [128]byte
	text := buf[:0]
	for _, f := range fields {
		if *f == missingStr {
			*f = missingStr
		} else {
			text = append(text, *f...)
		}
	}
	if len(text) == 0 {
		return
	}
	kept := string(text)
	for _, f := range fields {
		if *f != missingStr {
			*f, kept = kept[:len(*f)], kept[len(*f):]
		}
	}
}

func strField(s string) string {
	if s == "" {
		return missingStr
	}
	return s
}

// fields returns the record in canonical textual field order.
func (r Record) fields() []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fi := func(v int64) string { return strconv.FormatInt(v, 10) }
	return []string{
		fi(r.JobID), fi(r.Submit), fi(r.Wait), fi(r.Runtime), fi(r.Procs),
		ff(r.AvgCPU), fi(r.UsedMem), fi(r.ReqProcs), fi(r.ReqTime),
		fi(r.ReqMem), fi(r.Status), fi(r.User), fi(r.Group),
		fi(r.Executable), fi(r.Queue), fi(r.Partition),
		fi(r.OrigSite), fi(r.LastRunSite),
		strField(r.Structure), strField(r.StructureParams),
		ff(r.UsedNetwork), ff(r.UsedDisk),
		strField(r.UsedResources), strField(r.ReqPlatform),
		ff(r.ReqNetwork), ff(r.ReqDisk),
		strField(r.ReqResources), strField(r.VO), strField(r.Project),
	}
}
