package jdl

import (
	"errors"
	"fmt"
	"strings"
)

// Flavor is the parallelism flavor of a job.
type Flavor int

// Supported flavors: sequential jobs, MPICH-P4 (single-site parallel)
// and MPICH-G2 (multi-site parallel) per Section 3.
const (
	Sequential Flavor = iota
	MPICHP4
	MPICHG2
)

// String returns the JDL spelling of the flavor.
func (f Flavor) String() string {
	switch f {
	case Sequential:
		return "sequential"
	case MPICHP4:
		return "mpich-p4"
	case MPICHG2:
		return "mpich-g2"
	}
	return fmt.Sprintf("Flavor(%d)", int(f))
}

// StreamingMode selects the Grid Console transfer mode (Section 3).
type StreamingMode int

const (
	// FastStreaming performs no intermediate buffering; data may be
	// lost on network failure.
	FastStreaming StreamingMode = iota
	// ReliableStreaming spills the I/O streams to disk at both ends and
	// retries failed transfers, surviving temporary outages.
	ReliableStreaming
)

// String returns the JDL spelling of the mode.
func (m StreamingMode) String() string {
	if m == ReliableStreaming {
		return "reliable"
	}
	return "fast"
}

// MachineAccess selects how an interactive job acquires its machine
// (Section 3).
type MachineAccess int

const (
	// ExclusiveAccess runs the job alone on an idle machine; no
	// multi-programming components are involved.
	ExclusiveAccess MachineAccess = iota
	// SharedAccess runs the job on an interactive virtual machine,
	// possibly sharing the node with a batch job, for the fastest
	// startup.
	SharedAccess
)

// String returns the JDL spelling of the access mode.
func (a MachineAccess) String() string {
	if a == SharedAccess {
		return "shared"
	}
	return "exclusive"
}

// Job is the typed form of a JDL descriptor, consumed by the broker.
type Job struct {
	// Executable is the program to run on the worker nodes.
	Executable string
	// Arguments is the program argument list.
	Arguments []string
	// Interactive marks the job as interactive (JobType contains
	// "interactive"); otherwise it is a batch job.
	Interactive bool
	// Flavor is the parallelism flavor from JobType.
	Flavor Flavor
	// NodeNumber is how many nodes the job runs on (>= 1).
	NodeNumber int
	// Streaming selects the Grid Console mode for interactive jobs.
	Streaming StreamingMode
	// Access selects exclusive or shared machine access for
	// interactive jobs.
	Access MachineAccess
	// PerformanceLoss is the percentage of CPU the interactive job
	// leaves to a co-located batch job in shared mode (0, 5, 10, ...).
	PerformanceLoss int
	// ShadowPort optionally pins the Console Shadow's listening port
	// (for users behind firewalls); 0 means pick one at random.
	ShadowPort int
	// Requirements filters candidate machines; nil accepts all.
	Requirements *Expr
	// Rank orders acceptable machines (higher is better); nil leaves
	// ordering to the broker's default.
	Rank *Expr
	// InputFiles lists files staged to the execution machine before
	// start.
	InputFiles []string
	// InputData names the catalog datasets the job reads. Unlike
	// InputFiles (small sandbox files shipped from the broker), these
	// are replicated grid datasets: the broker prices each candidate
	// site's staging cost against the data catalog and folds it into
	// the rank when data-aware matchmaking is on.
	InputData []string
	// Owner is the submitting user's identity (filled by the broker
	// from the GSI credential, not from the JDL).
	Owner string

	// compiled caches the Requirements/Rank programs lowered against
	// the current information-system schema (see compile.go). It is
	// unlocked: a job is compiled only on the goroutine of the Sim it
	// was submitted to. Jobs are handled by pointer throughout; the
	// cache must not be copied.
	compiled *compiledEntry
}

// ErrValidation tags job validation failures.
var ErrValidation = errors.New("jdl: invalid job")

func validationErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrValidation, fmt.Sprintf(format, args...))
}

// ExtractJob converts a parsed descriptor into a validated Job,
// applying the paper's defaults: batch, sequential, one node, fast
// streaming, exclusive access, zero performance loss.
func ExtractJob(d *Descriptor) (*Job, error) {
	j := &Job{NodeNumber: 1}

	v, ok := d.get("Executable")
	if !ok {
		return nil, validationErrf("missing Executable")
	}
	s, ok := v.(String)
	if !ok || s == "" {
		return nil, validationErrf("Executable must be a non-empty string")
	}
	j.Executable = string(s)

	if v, ok := d.get("Arguments"); ok {
		switch a := v.(type) {
		case String:
			j.Arguments = strings.Fields(string(a))
		case List:
			for _, item := range a {
				as, ok := item.(String)
				if !ok {
					return nil, validationErrf("Arguments list must contain strings")
				}
				j.Arguments = append(j.Arguments, string(as))
			}
		default:
			return nil, validationErrf("Arguments must be a string or list of strings")
		}
	}

	if v, ok := d.get("JobType"); ok {
		if err := parseJobType(j, v); err != nil {
			return nil, err
		}
	}

	if v, ok := d.get("NodeNumber"); ok {
		n, ok := v.(Number)
		if !ok || n != Number(int(n)) || int(n) < 1 {
			return nil, validationErrf("NodeNumber must be a positive integer")
		}
		j.NodeNumber = int(n)
	}

	if v, ok := d.get("StreamingMode"); ok {
		s, ok := v.(String)
		if !ok {
			return nil, validationErrf("StreamingMode must be a string")
		}
		switch strings.ToLower(string(s)) {
		case "fast":
			j.Streaming = FastStreaming
		case "reliable":
			j.Streaming = ReliableStreaming
		default:
			return nil, validationErrf("StreamingMode %q (want fast or reliable)", s)
		}
	}

	if v, ok := d.get("MachineAccess"); ok {
		s, ok := v.(String)
		if !ok {
			return nil, validationErrf("MachineAccess must be a string")
		}
		switch strings.ToLower(string(s)) {
		case "exclusive":
			j.Access = ExclusiveAccess
		case "shared":
			j.Access = SharedAccess
		default:
			return nil, validationErrf("MachineAccess %q (want exclusive or shared)", s)
		}
	}

	if v, ok := d.get("PerformanceLoss"); ok {
		n, ok := v.(Number)
		if !ok || n != Number(int(n)) {
			return nil, validationErrf("PerformanceLoss must be an integer")
		}
		pl := int(n)
		// "Values for Performance Loss can be 0, 5, 10, 15, and so on."
		if pl < 0 || pl > 100 || pl%5 != 0 {
			return nil, validationErrf("PerformanceLoss %d (want a multiple of 5 in [0,100])", pl)
		}
		j.PerformanceLoss = pl
	}

	if v, ok := d.get("ShadowPort"); ok {
		n, ok := v.(Number)
		if !ok || n != Number(int(n)) || int(n) < 0 || int(n) > 65535 {
			return nil, validationErrf("ShadowPort must be a port number")
		}
		j.ShadowPort = int(n)
	}

	if v, ok := d.get("Requirements"); ok {
		e, err := asExpr(v, "Requirements")
		if err != nil {
			return nil, err
		}
		j.Requirements = e
	}
	if v, ok := d.get("Rank"); ok {
		e, err := asExpr(v, "Rank")
		if err != nil {
			return nil, err
		}
		j.Rank = e
	}

	if v, ok := d.get("InputFiles"); ok {
		l, ok := v.(List)
		if !ok {
			return nil, validationErrf("InputFiles must be a list of strings")
		}
		for _, item := range l {
			s, ok := item.(String)
			if !ok {
				return nil, validationErrf("InputFiles must be a list of strings")
			}
			j.InputFiles = append(j.InputFiles, string(s))
		}
	}

	if v, ok := d.get("InputData"); ok {
		l, ok := v.(List)
		if !ok {
			return nil, validationErrf("InputData must be a list of strings")
		}
		seen := make(map[string]bool, len(l))
		for _, item := range l {
			s, ok := item.(String)
			if !ok {
				return nil, validationErrf("InputData must be a list of strings")
			}
			if s == "" {
				return nil, validationErrf("InputData contains an empty dataset name")
			}
			if seen[string(s)] {
				return nil, validationErrf("InputData names dataset %q twice", s)
			}
			seen[string(s)] = true
			j.InputData = append(j.InputData, string(s))
		}
	}

	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

func asExpr(v Value, attr string) (*Expr, error) {
	switch x := v.(type) {
	case Expr:
		return &x, nil
	case Bool:
		return &Expr{Node: Lit{V: x}}, nil
	case Number:
		return &Expr{Node: Lit{V: x}}, nil
	}
	return nil, validationErrf("%s must be an expression", attr)
}

func parseJobType(j *Job, v Value) error {
	var parts []string
	switch t := v.(type) {
	case String:
		parts = []string{string(t)}
	case List:
		for _, item := range t {
			s, ok := item.(String)
			if !ok {
				return validationErrf("JobType list must contain strings")
			}
			parts = append(parts, string(s))
		}
	default:
		return validationErrf("JobType must be a string or list of strings")
	}
	for _, p := range parts {
		switch strings.ToLower(p) {
		case "batch":
			j.Interactive = false
		case "interactive":
			j.Interactive = true
		case "sequential":
			j.Flavor = Sequential
		case "mpich-p4", "mpich":
			j.Flavor = MPICHP4
		case "mpich-g2", "mpichg2":
			j.Flavor = MPICHG2
		default:
			return validationErrf("unknown JobType %q", p)
		}
	}
	return nil
}

// Validate checks cross-attribute constraints.
func (j *Job) Validate() error {
	if j.Executable == "" {
		return validationErrf("missing Executable")
	}
	if j.NodeNumber < 1 {
		return validationErrf("NodeNumber must be >= 1")
	}
	if j.Flavor == Sequential && j.NodeNumber != 1 {
		return validationErrf("sequential job with NodeNumber %d", j.NodeNumber)
	}
	if !j.Interactive {
		if j.Access == SharedAccess {
			return validationErrf("MachineAccess=shared applies only to interactive jobs")
		}
		if j.PerformanceLoss != 0 {
			return validationErrf("PerformanceLoss applies only to interactive jobs")
		}
	}
	return nil
}

// ParseJob parses JDL source and extracts the validated job in one
// step.
func ParseJob(src string) (*Job, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExtractJob(d)
}
