// Package parallel fans independent, deterministic simulation trials
// across a bounded worker pool. Every figure of the paper's evaluation is
// a sweep of hundreds of runs that share no state — each trial builds its
// own cluster and telemetry registries, on its worker's engine (Engines)
// Reset with a seed derived from its grid index — so the sweep layer can
// execute points in any order as long as results are committed in index
// order. That is the package's determinism contract: callers derive each
// point's seed from the point's index (never from execution order),
// workers write only to their own index's slot, and the assembled output
// is byte-identical to sequential execution whatever the worker count.
//
// The pool is bounded by GOMAXPROCS and overridable with SetJobs (the
// CLIs' -j flag). Jobs()==1 degenerates to a plain loop on the calling
// goroutine, which keeps single-core and -j 1 runs allocation-free.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"odpsim/internal/sim"
)

// jobs is the configured worker bound; <= 0 means runtime.GOMAXPROCS(0).
var jobs atomic.Int32

// SetJobs bounds the worker pool to n goroutines. n <= 0 restores the
// default, runtime.GOMAXPROCS(0). It is intended for process start (the
// -j flag) and tests; concurrent calls with running sweeps are not
// synchronized with them.
func SetJobs(n int) {
	if n < 0 {
		n = 0
	}
	jobs.Store(int32(n))
}

// Jobs returns the current worker bound.
func Jobs() int {
	if n := int(jobs.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run invokes fn(worker, i) for every i in [0, n), distributing indices
// across Jobs() workers and blocking until all complete. worker is the
// invoking worker's index in [0, Jobs()): fn is never called concurrently
// with the same worker value, so callers can keep per-worker scratch
// state (e.g. a Reset-reused sim engine, Engines). A panic in fn is
// re-raised on the calling goroutine after the pool drains.
func Run(n int, fn func(worker, i int)) { RunWorkers(Jobs(), n, fn) }

// RunWorkers is Run on w workers instead of Jobs(), for a caller that
// takes its worker count from elsewhere (kv-serve's -shards). w <= 1
// runs every index on the calling goroutine.
func RunWorkers(w, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map invokes fn(i) for every i in [0, n) across the worker pool and
// returns the results committed in index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(n, func(_, i int) { out[i] = fn(i) })
	return out
}

// Engines is a per-worker engine cache for parallel sweeps: Get(worker)
// lazily creates one engine per worker, and building each trial on it
// (System.BuildOn) recycles the engine's event storage and its
// generation arenas across that worker's trials. Index only with the
// worker argument Run supplies — that is what makes the reuse
// race-free. Create one cache per sweep or scenario run, so the arenas
// die with it instead of outliving the run.
type Engines []*sim.Engine

// NewEngines sizes a cache for the current worker bound.
func NewEngines() Engines { return make(Engines, Jobs()) }

// Get returns worker w's engine, creating it on first use. The seed is
// irrelevant: every run Resets the engine with its own trial seed. A nil
// cache returns nil, which BuildOn treats as "build a fresh engine".
func (e Engines) Get(w int) *sim.Engine {
	if e == nil {
		return nil
	}
	if e[w] == nil {
		e[w] = sim.New(0)
	}
	return e[w]
}
