// Command jdltool parses, validates and canonicalizes Job Description
// Language files (Figure 2 of the paper).
//
// Usage:
//
//	jdltool [-check] [file.jdl ...]
//
// With no files, it reads a document from standard input. For each
// document it prints the canonical form and the derived job summary;
// -check suppresses output and only reports validity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"crossbroker/internal/jdl"
)

func main() {
	check := flag.Bool("check", false, "validate only; print nothing on success")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jdltool [-check] [file.jdl ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	srcs := map[string]string{}
	if flag.NArg() == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal("read stdin: %v", err)
		}
		srcs["<stdin>"] = string(data)
	} else {
		for _, name := range flag.Args() {
			data, err := os.ReadFile(name)
			if err != nil {
				fatal("%v", err)
			}
			srcs[name] = string(data)
		}
	}

	exit := 0
	for name, src := range srcs {
		if err := process(name, src, *check); err != nil {
			fmt.Fprintf(os.Stderr, "jdltool: %s: %v\n", name, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func process(name, src string, check bool) error {
	d, err := jdl.Parse(src)
	if err != nil {
		return err
	}
	job, err := jdl.ExtractJob(d)
	if err != nil {
		return err
	}
	if check {
		return nil
	}
	fmt.Printf("# %s — canonical form\n%s\n", name, d.String())
	fmt.Printf("# derived job\n%s", summarize(job))
	return nil
}

func summarize(j *jdl.Job) string {
	var b strings.Builder
	kind := "batch"
	if j.Interactive {
		kind = "interactive"
	}
	fmt.Fprintf(&b, "executable : %s %s\n", j.Executable, strings.Join(j.Arguments, " "))
	fmt.Fprintf(&b, "type       : %s %s on %d node(s)\n", kind, j.Flavor, j.NodeNumber)
	if j.Interactive {
		fmt.Fprintf(&b, "streaming  : %s\n", j.Streaming)
		fmt.Fprintf(&b, "access     : %s", j.Access)
		if j.Access == jdl.SharedAccess {
			fmt.Fprintf(&b, " (PerformanceLoss %d%%)", j.PerformanceLoss)
		}
		b.WriteByte('\n')
	}
	if j.Requirements != nil {
		fmt.Fprintf(&b, "requires   : %s\n", j.Requirements.Node)
	}
	if j.Rank != nil {
		fmt.Fprintf(&b, "rank       : %s\n", j.Rank.Node)
	}
	if len(j.InputFiles) > 0 {
		fmt.Fprintf(&b, "inputs     : %s\n", strings.Join(j.InputFiles, ", "))
	}
	return b.String()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jdltool: "+format+"\n", args...)
	os.Exit(1)
}
