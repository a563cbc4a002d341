package core

import (
	"reflect"
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
)

// sweepOutputs runs reduced versions of the Fig-2/4/6/9 sweeps, plus a
// Clos-fabric exec sweep, and returns everything they produce.
func sweepOutputs() []any {
	fig2 := SweepTimeouts([]cluster.System{cluster.KNL(), cluster.AzureHC()}, []int{1, 16, 20}, 3)

	base4 := DefaultBench()
	fig4 := SweepExecTime(base4, IntervalRange(0, 6, 1.5), 3)

	base6 := DefaultBench()
	base6.Mode = ServerODP
	fig6 := SweepTimeoutProbability(base6, IntervalRange(0, 6, 2), 4, "1.28 ms")

	base9 := DefaultBench()
	base9.NumOps = 512
	base9.CACK = 18
	fig9 := SweepQPs(base9, []int{1, 16}, []ODPMode{NoODP, ClientODP})

	// A Clos fabric with ECMP in the loop: path choice hashes on the
	// engine seed, so per-point seeding must keep it identical for any
	// worker count.
	closCfg := congestion.DefaultConfig()
	closCfg.Topology = congestion.ClosTopology(2, 4, 4)
	closCfg.PFC = true
	closCfg.XOffBytes = 1 << 10
	closCfg.XOnBytes = 512
	baseClos := DefaultBench()
	baseClos.System.Congestion = &closCfg
	clos := SweepExecTime(baseClos, IntervalRange(0, 4, 2), 3)

	// A collective declaring 8 worker lanes, which it ignores (it runs
	// on one engine), must reproduce exactly alongside the sweeps for any
	// jobs count (lane-count invariance itself is pinned by
	// TestShardedByteIdentical at the scenario level).
	shardSc := &scenario.Scenario{
		Name: "sweep-shard", Workload: "collective", Pattern: "incast",
		Mode: "server", Shards: 8,
		Congestion: &scenario.CongestionSpec{
			Topology: &scenario.TopologySpec{Kind: "clos", Tiers: 2, Radix: 4, Oversubscription: 4},
			PFC:      true,
			XOffKB:   1,
			XOnKB:    0.5,
		},
	}
	sys, err := shardSc.ResolvedSystem()
	if err != nil {
		panic(err)
	}
	sharded := runCollective(shardSc, sys, 9, 8, 1024, 3)

	// The IRN selective-repeat transport over a lossy fabric: SACK
	// emission, reorder-buffer fills and per-packet retransmits must all
	// reproduce exactly for any worker count.
	baseIrn := DefaultBench()
	baseIrn.System.Transport = "irn"
	baseIrn.System.LossRate = 0.1
	baseIrn.NumOps = 64
	baseIrn.NumQPs = 4
	baseIrn.CACK = 8
	irn := SweepExecTime(baseIrn, IntervalRange(0, 4, 2), 3)

	return []any{fig2, fig4, fig6, fig9, clos, sharded, irn}
}

// TestSweepDeterminismAcrossJobs is the cross-check the parallel runner
// promises: every sweep produces identical stats.Series with -j 1 and
// -j 8 on the Fig-2/4/6/9 scenarios.
func TestSweepDeterminismAcrossJobs(t *testing.T) {
	parallel.SetJobs(1)
	t.Cleanup(func() { parallel.SetJobs(0) })
	seq := sweepOutputs()
	parallel.SetJobs(8)
	par := sweepOutputs()
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("sweep %d differs between -j 1 and -j 8:\n  j1: %+v\n  j8: %+v", i, seq[i], par[i])
		}
	}
}

// TestEngineReuseByteIdentical checks a run on a Reset-reused (and
// deliberately dirtied) engine reproduces a fresh-engine run exactly.
func TestEngineReuseByteIdentical(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = sim.Millisecond
	want := RunMicrobench(cfg)

	eng := sim.New(0)
	dirty := cfg
	dirty.Eng = eng
	dirty.Seed = 999
	RunMicrobench(dirty)

	reused := cfg
	reused.Eng = eng
	got := RunMicrobench(reused)
	if got.ExecTime != want.ExecTime || got.Timeouts != want.Timeouts ||
		got.Retransmits != want.Retransmits || got.PacketsOnWire != want.PacketsOnWire ||
		got.DammedDrops != want.DammedDrops || !reflect.DeepEqual(got.CompletionTime, want.CompletionTime) {
		t.Errorf("reused engine run differs:\n  fresh:  %+v\n  reused: %+v", want, got)
	}

	// And the timeout probe.
	wantTo := MeasureTimeout(cluster.KNL(), 1, 1)
	MeasureTimeoutOn(eng, cluster.AzureHC(), 5, 77) // dirty again
	if gotTo := MeasureTimeoutOn(eng, cluster.KNL(), 1, 1); gotTo != wantTo {
		t.Errorf("MeasureTimeoutOn reused = %v, fresh = %v", gotTo, wantTo)
	}
}

// TestIntervalRangePinsFig4Grid pins the exact nanosecond grids of the
// figure sweeps: every point is from + i*step (no accumulated float
// error), so e.g. the 0.1 ms grid's points are exact multiples of
// 100 µs — the accumulating implementation drifted points like 0.8 ms
// down to 799999 ns.
func TestIntervalRangePinsFig4Grid(t *testing.T) {
	// Fig-4 full grid: 0..6 ms step 0.25 ms.
	got := IntervalRange(0, 6, 0.25)
	if len(got) != 25 {
		t.Fatalf("fig4 grid has %d points, want 25", len(got))
	}
	for i, x := range got {
		if want := sim.Time(i) * 250 * sim.Microsecond; x != want {
			t.Errorf("fig4 grid[%d] = %d ns, want %d ns", i, int64(x), int64(want))
		}
	}
	// Fig-6b grid: 0..6 ms step 0.1 ms — the one the accumulating loop
	// got wrong.
	got = IntervalRange(0, 6, 0.1)
	if len(got) != 61 {
		t.Fatalf("fig6b grid has %d points, want 61", len(got))
	}
	for i, x := range got {
		if want := sim.Time(i) * 100 * sim.Microsecond; x != want {
			t.Errorf("fig6b grid[%d] = %d ns, want %d ns", i, int64(x), int64(want))
		}
	}
}
