package mpisim

import (
	"fmt"
	"io"
	"sync"

	"crossbroker/internal/interpose"
	"crossbroker/internal/jdl"
)

// App is a parallel application to run under the Grid Console.
type App struct {
	// Flavor determines the subjob layout: MPICHG2 gives every rank
	// its own subjob (and Console Agent); MPICHP4 and Sequential run
	// as a single subjob.
	Flavor jdl.Flavor
	// Ranks is the number of MPI ranks (1 for Sequential).
	Ranks int
	// Body is the per-rank application code.
	Body func(r *Rank) error
}

// subjobs returns how many Console Agents the application needs.
func (a *App) subjobs() int {
	if a.Flavor == jdl.MPICHG2 {
		return a.Ranks
	}
	return 1
}

// AppFuncs builds the interposable application bodies, one per subjob,
// sharing a fresh communicator. For MPICH-G2 each rank is a separate
// subjob with its own standard streams; for MPICH-P4 (and Sequential)
// a single subjob hosts every rank, rank 0 owns stdin, and all ranks
// share the subjob's stdout/stderr.
func (a *App) AppFuncs() ([]interpose.AppFunc, error) {
	if a.Ranks < 1 {
		return nil, fmt.Errorf("mpisim: app with %d ranks", a.Ranks)
	}
	if a.Flavor == jdl.Sequential && a.Ranks != 1 {
		return nil, fmt.Errorf("mpisim: sequential app with %d ranks", a.Ranks)
	}
	if a.Body == nil {
		return nil, fmt.Errorf("mpisim: app without body")
	}
	comm := newComm(a.Ranks)

	if a.Flavor == jdl.MPICHG2 {
		funcs := make([]interpose.AppFunc, a.Ranks)
		for i := 0; i < a.Ranks; i++ {
			rank := i
			funcs[rank] = func(stdin io.Reader, stdout, stderr io.Writer) error {
				r := &Rank{rank: rank, comm: comm, Stdin: stdin, Stdout: stdout, Stderr: stderr}
				err := a.Body(r)
				if err != nil {
					comm.abort()
				}
				return err
			}
		}
		return funcs, nil
	}

	// Single subjob: all ranks in-process, sharing the subjob stdio.
	one := func(stdin io.Reader, stdout, stderr io.Writer) error {
		out := &lockedWriter{w: stdout}
		errw := &lockedWriter{w: stderr}
		errs := make([]error, a.Ranks)
		var wg sync.WaitGroup
		for i := 0; i < a.Ranks; i++ {
			rank := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &Rank{rank: rank, comm: comm, Stdout: out, Stderr: errw}
				if rank == 0 {
					r.Stdin = stdin
				} else {
					r.Stdin = emptyReader{}
				}
				errs[rank] = a.Body(r)
				if errs[rank] != nil {
					comm.abort()
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return []interpose.AppFunc{one}, nil
}

// lockedWriter serializes concurrent rank writes onto one stream.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// emptyReader is the non-rank-0 stdin: immediate EOF.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }
