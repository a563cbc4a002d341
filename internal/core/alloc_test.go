package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"odpsim/internal/sim"
)

// microbenchAllocCeiling is the warm reading of one RunMicrobench trial
// on a Reset-reused engine, the loop every sweep runs. The seed's
// datapath cost was 937 allocations a trial; the pooled datapath and the
// engine-generation arenas (DESIGN.md §8) bring a warm trial to 3 (5
// while each trial made its completion times and final snapshot, 10
// while each rebuild rendered its node names, grew its node list by
// append and allocated its MRs one by one, 12 while each device bound
// its receive method value per rebuild). The client is a recycled
// callback record with no goroutine of its own that also keeps the
// result's completion times and final snapshot samples, so no runtime
// allocation rides along: the reading is 3 in every run, with and
// without -race, at GOMAXPROCS 1, 2 and 4. What remains is the
// BenchResult the trial returns and the cluster shell and node list it
// rebuilds.
const microbenchAllocCeiling = 3

// TestAllocBudgetMicrobench pins the per-trial allocation budget of the
// whole stack at microbenchAllocCeiling.
func TestAllocBudgetMicrobench(t *testing.T) {
	eng := sim.New(1)
	seed := int64(0)
	trial := func() {
		seed++
		cfg := DefaultBench()
		cfg.Eng = eng
		cfg.Seed = seed
		RunMicrobench(cfg)
	}
	trial() // first trial warms the arenas

	avg := testing.AllocsPerRun(20, trial)
	t.Logf("warm RunMicrobench trial allocates %.0f/op (ceiling %d)", avg, microbenchAllocCeiling)
	if avg > microbenchAllocCeiling {
		t.Errorf("warm RunMicrobench trial allocates %.0f/op, ceiling %d", avg, microbenchAllocCeiling)
	}
}

// microbenchBytesMargin bounds how many more bytes a warm 8,192-op
// trial may allocate than a warm 512-op trial on the same engine.
const microbenchBytesMargin = 256

// TestAllocBudgetMicrobenchBytes checks that a warm trial's bytes do
// not grow with its op count: once an engine has run a trial of a size,
// the client record keeps the completion times and final snapshot
// samples and the QPs keep their send queues, so a trial of that size
// allocates what a small one does. A per-op array made per trial adds
// 8 bytes an op, 60 KiB here.
func TestAllocBudgetMicrobenchBytes(t *testing.T) {
	eng := sim.New(1)
	trial := func(ops int) func() {
		return func() {
			cfg := DefaultBench()
			cfg.Eng = eng
			cfg.NumOps = ops
			RunMicrobench(cfg)
		}
	}
	trial(8192)() // warms the engine at the larger size
	small, large := minBytes(5, trial(512)), minBytes(5, trial(8192))
	t.Logf("warm RunMicrobench trial allocates %d B at 512 ops, %d B at 8192 (margin %d)", small, large, microbenchBytesMargin)
	if large > small+microbenchBytesMargin {
		t.Errorf("warm 8192-op trial allocates %d B, more than a 512-op trial's %d B plus %d", large, small, microbenchBytesMargin)
	}
}

// minBytes returns the fewest heap bytes one of runs calls of f
// allocates, so an allocation only some calls make does not count: under
// -race, the mean of five trials read 1.1 KB more in one run of twenty.
func minBytes(runs int, f func()) uint64 {
	// A GC cycle starting inside a measured call would count its own
	// allocations against it.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
