package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiments in this package decompose into independent cells —
// one (seed, run) combination, one sweep point, one scenario — each
// running its own simclock.Sim. Simulations in virtual time share no
// state across cells, so the cells execute on a worker pool of real
// goroutines and merge deterministically by cell index: the output is
// byte-identical whatever the worker count, while wall clock drops
// severalfold on multi-core machines.

// runCells evaluates cell(0..n-1) on up to workers goroutines and
// returns the results in cell order. workers <= 0 selects one worker
// per available CPU (GOMAXPROCS); a single worker degenerates to a
// plain loop with fail-fast. When cells fail, the error of the
// lowest-indexed failing cell is returned, keeping error reporting
// independent of scheduling.
func runCells[T any](n, workers int, cell func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := cell(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
