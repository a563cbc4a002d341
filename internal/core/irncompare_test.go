package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"odpsim/internal/core"
	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
	"odpsim/internal/sim"
)

// irnCellAllocCeiling is the warm reading of one irn-incast cell (IRN,
// lossy Clos, server-side ODP, 512 WRITEs over 8 QPs) on a Reset-reused
// engine, the loop irn-compare's workers run: QPs, CQs, RNICs, IRN
// reorder state, switch ports, packets and the IRN back-off timers all
// come back from the engine's arenas and free lists, and the client is
// a recycled callback record, not a goroutine, that keeps the result's
// completion times and final snapshot samples. It reads 6 with and
// without -race (8 while each cell made its completion times and final
// snapshot, 13 while each rebuild rendered its node names, grew its
// node list by append and allocated its MRs one by one, 15 while each
// device bound its receive method value per rebuild, 16 while
// registration and pinning built a page list per call); with a closure
// per RNR back-off it read 535.
const irnCellAllocCeiling = 6

// TestAllocBudgetIRNCompareCell pins the warm per-cell allocation budget
// of irn-compare at irnCellAllocCeiling.
func TestAllocBudgetIRNCompareCell(t *testing.T) {
	sc, err := scenario.Lookup("irn-incast")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.IRNCell(&sc, "odp", "irn", "lossy")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Eng = sim.New(1)
	core.RunMicrobench(cfg) // the first cell warms the arenas

	avg := testing.AllocsPerRun(20, func() { core.RunMicrobench(cfg) })
	t.Logf("warm irn-incast cell allocates %.0f/op (ceiling %d)", avg, irnCellAllocCeiling)
	if avg > irnCellAllocCeiling {
		t.Errorf("warm irn-incast cell allocates %.0f/op, ceiling %d", avg, irnCellAllocCeiling)
	}
}

// TestStormOutputIndependentOfJobs runs the storm and irn-compare
// workloads, whose cells fan across per-worker reused engines, at one
// and at four workers: the bytes must not depend on which worker's
// engine ran which cell, or in what order.
func TestStormOutputIndependentOfJobs(t *testing.T) {
	t.Cleanup(func() { parallel.SetJobs(0) })
	for _, name := range []string{"irn-storm", "irn-incast", "storm-lossless"} {
		var out [2]bytes.Buffer
		for k, jobs := range []int{1, 4} {
			parallel.SetJobs(jobs)
			if err := scenario.RunNamed(name, &out[k], scenario.Options{Quick: true}); err != nil {
				t.Fatalf("%s -j %d: %v", name, jobs, err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("%s: -j 4 output differs from -j 1:\n%s\nwant:\n%s", name, out[1].String(), out[0].String())
		}
	}
}

// TestResultsReadBeforeNextTrial runs the three workloads that keep
// micro-benchmark results across trials on one engine, progress (fig11),
// irn-compare (irn-damming) and storm (storm-lossless -quick), at one
// worker and at eight. A result's CompletionTime and Final live until
// its engine's next trial (DESIGN.md §8), and at one worker every trial
// shares one engine, so a workload that reads them after parallel.Run
// returns prints another trial's numbers: the bytes differ from those
// at eight workers and, for the two full-size runs, from the golden in
// results/. The golden is the firmer reference, as eight workers on a
// busy host may still run several trials on one engine.
func TestResultsReadBeforeNextTrial(t *testing.T) {
	t.Cleanup(func() { parallel.SetJobs(0) })
	for _, c := range []struct {
		name  string
		quick bool
	}{{"fig11", false}, {"irn-damming", false}, {"storm-lossless", true}} {
		var out [2]bytes.Buffer
		for k, jobs := range []int{1, 8} {
			parallel.SetJobs(jobs)
			if err := scenario.RunNamed(c.name, &out[k], scenario.Options{Quick: c.quick}); err != nil {
				t.Fatalf("%s -j %d: %v", c.name, jobs, err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("%s: -j 1 output differs from -j 8:\n%s\nwant:\n%s", c.name, out[0].String(), out[1].String())
		}
		if c.quick {
			continue
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "results", c.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[0].Bytes(), golden) {
			t.Errorf("%s: -j 1 output differs from results/%s.txt:\n%s", c.name, c.name, out[0].String())
		}
	}
}
