package core

import (
	"testing"

	"odpsim/internal/sim"
)

// microbenchAllocCeiling is the highest warm reading of one
// RunMicrobench trial on a Reset-reused engine, the loop every sweep
// runs. The seed's datapath cost was 937 allocations a trial; the pooled
// datapath and the engine-generation arenas (DESIGN.md §8) bring a
// steady trial to 22. The first warm trials in a fresh process still
// grow a few tables, which lifts the 20-trial mean to 23.
const microbenchAllocCeiling = 23

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
