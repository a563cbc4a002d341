package core

import (
	"testing"

	"odpsim/internal/sim"
)

// microbenchAllocCeiling is the highest warm reading of one
// RunMicrobench trial on a Reset-reused engine, the loop every sweep
// runs. The seed's datapath cost was 937 allocations a trial; the pooled
// datapath and the engine-generation arenas (DESIGN.md §8) bring a
// steady trial to 21. A recycled engine's first warm trial also sizes
// the tables its first trial left short (a page's spare fault-waiter
// array, the ODP spurious table), so later trials only add the odd
// runtime allocation and a seed-dependent ODP queue growth: the 20-trial
// mean reads 21.1 in a fresh process.
const microbenchAllocCeiling = 21

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
