// Package par is a tiny deterministic fan-out primitive: run n
// independent jobs across a bounded worker pool and return their
// results in job order, so callers observe identical output whether the
// pool has one worker or sixteen.
//
// It deliberately has no dependencies: both the experiment sweeps and
// the campaign runner build on it without creating import cycles with
// the public dtp package.
package par

import (
	"fmt"
	"runtime"
	"sync"
)

// Jobs normalizes a worker-count request: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(0..n-1) across up to jobs concurrent workers and returns
// the results indexed by job, regardless of completion order. The first
// error (by job index, not by wall time) is returned after all workers
// drain; the result slice is still fully populated for jobs that
// succeeded. jobs <= 0 selects GOMAXPROCS; jobs == 1 runs inline with
// no goroutines, which keeps single-worker traces trivially debuggable.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, firstError(errs)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("par: job %d panicked: %v", i, r)
						}
					}()
					out[i], errs[i] = fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
