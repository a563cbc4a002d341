package core

import (
	"testing"

	"odpsim/internal/sim"
)

// microbenchAllocCeiling is the warm reading of one RunMicrobench trial
// on a Reset-reused engine, the loop every sweep runs. The seed's
// datapath cost was 937 allocations a trial; the pooled datapath and the
// engine-generation arenas (DESIGN.md §8) bring a warm trial to 5 (10
// while each rebuild rendered its node names, grew its node list by
// append and allocated its MRs one by one, 12 while each device bound
// its receive method value per rebuild). The client is a recycled
// callback record with no goroutine of its own, so no runtime
// allocation rides along: the reading is 5 in every run, with and
// without -race, at GOMAXPROCS 1, 2 and 4. What remains is mostly
// per-run state the trial returns or rebuilds: the BenchResult and its
// completion times, the final counter snapshot, and the cluster shell
// and node list.
const microbenchAllocCeiling = 5

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
