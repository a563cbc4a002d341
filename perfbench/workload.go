package main

import (
	"fmt"
	"path/filepath"

	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/scenario"
	"odpsim/internal/shard"
)

// workload is one benchmark input: registered scenarios executed back to
// back as one timed execution, each checked byte for byte against its
// reference output.
type workload struct {
	name string
	// scenarios are registry names; one execution runs all of them.
	scenarios []string
	// resize, when set, changes the registered scenario (trial count,
	// lane count). Resized outputs are checked against refs instead of
	// the committed goldens.
	resize func(*scenario.Scenario)
	// refs maps a scenario name to a reference recorded under the
	// benchmark's own directory; others use results/<name>.txt.
	refs map[string]string
	// build performs one cold build of every simulated system the
	// scenarios construct, through the builders the workloads use.
	build func(scs []scenario.Scenario) error
	// setupBatch is how many set-ups one timed set-up sample covers, so a
	// sample lasts tens of milliseconds instead of a noisy handful of
	// microseconds.
	setupBatch int
	// redrive replays the scenarios' simulations on the harness's own
	// engine, adding their event and work counts to wc and checking the
	// results against the reference tables.
	redrive func(scs []scenario.Scenario, refs [][]byte, wc *workCounts) error
}

var workloads = []*workload{
	{
		name:      "qp-flood",
		scenarios: []string{"fig9"},
		// Full fidelity over the grid's first six QP counts: every row is
		// the golden's row, at a seventh of the full figure's time.
		resize: func(sc *scenario.Scenario) {
			g := *sc.Grid
			g.List = g.List[:6:6]
			sc.Grid = &g
		},
		refs:       map[string]string{"fig9": filepath.Join("perfbench", "ref", "fig9-qps1-50.txt")},
		build:      buildDirect,
		setupBatch: 400,
		redrive:    redriveQPSweep,
	},
	{
		name:      "spark-tab13",
		scenarios: []string{"tab13"},
		resize: func(sc *scenario.Scenario) {
			sc.Trials, sc.Waves = 1, 1
		},
		refs:       map[string]string{"tab13": filepath.Join("perfbench", "ref", "tab13-trials1-waves1.txt")},
		build:      buildTab13,
		setupBatch: 100,
	},
	{
		name:       "storm-modes",
		scenarios:  []string{"irn-storm", "irn-damming", "irn-incast"},
		build:      buildIRNCells,
		setupBatch: 10,
		redrive:    redriveIRNCompare,
	},
	{
		name:      "kv-serve",
		scenarios: []string{"kv-serve"},
		resize: func(sc *scenario.Scenario) {
			sc.Shards = 1
		},
		build:      buildKVPods,
		setupBatch: 2,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildDirect builds the two-node direct-link cluster each Figure-9 point
// runs on.
func buildDirect(scs []scenario.Scenario) error {
	for i := range scs {
		sys, err := scs[i].ResolvedSystem()
		if err != nil {
			return err
		}
		sys.BuildOn(nil, scs[i].SeedOrDefault(), 2)
	}
	return nil
}

// buildTab13 builds the two-executor cluster of every Table-13 system row.
func buildTab13(scs []scenario.Scenario) error {
	for i := range scs {
		for _, row := range sparkucx.Table13Configs() {
			scs[i].ApplyFaults(row.System).Build(scs[i].SeedOrDefault(), 2)
		}
	}
	return nil
}

// irnCell is one irn-compare cell: its system and its fabric's row label.
type irnCell struct {
	sys    cluster.System
	fabric string
}

// irnCells lists every irn-compare cell, memory mode × transport ×
// {lossy, lossless} fabric, in the workload's order. The lossy fabric is
// the declared one with PFC, ECN and DCQCN stripped.
func irnCells(sc *scenario.Scenario) ([]irnCell, error) {
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return nil, err
	}
	lossy := *sc.Congestion
	lossy.PFC, lossy.ECN, lossy.DCQCN = false, false, false
	fabrics := []struct {
		label string
		spec  *scenario.CongestionSpec
	}{{"lossy", &lossy}, {"lossless", sc.Congestion}}
	var out []irnCell
	for _, mem := range []string{"pin", "odp", "npr"} {
		for _, tr := range []string{"rc", "irn"} {
			for _, fb := range fabrics {
				s := sys
				s.MemMode, s.Transport = mem, tr
				c := fb.spec.Config()
				s.Congestion = &c
				out = append(out, irnCell{s, fb.label})
			}
		}
	}
	return out, nil
}

func buildIRNCells(scs []scenario.Scenario) error {
	for i := range scs {
		cells, err := irnCells(&scs[i])
		if err != nil {
			return err
		}
		for _, c := range cells {
			c.sys.BuildOn(nil, scs[i].SeedOrDefault(), 2)
		}
	}
	return nil
}

// buildKVPods builds kv-serve's pod cells the way the workload does: one
// congestion.PodTopology cluster per pod of the declared fat-tree, plus
// the causal-domain partition of its client→server flows.
func buildKVPods(scs []scenario.Scenario) error {
	for i := range scs {
		sc := &scs[i]
		sys, err := sc.ResolvedSystem()
		if err != nil {
			return err
		}
		cfg := sc.Congestion.Config()
		pods := cfg.Topology.Radix
		if pods == 0 || sc.Nodes%pods != 0 {
			return fmt.Errorf("%s: %d nodes do not split into %d pods", sc.Name, sc.Nodes, pods)
		}
		hostsPer := sc.Nodes / pods
		var pairs [][2]int
		for p := 0; p < pods; p++ {
			for c := 1; c < hostsPer; c++ {
				pairs = append(pairs, [2]int{p*hostsPer + c, p * hostsPer})
			}
		}
		if part := shard.Decompose(sc.Nodes, pairs); part.Count != pods {
			return fmt.Errorf("%s: %d causal domains, want %d", sc.Name, part.Count, pods)
		}
		podCfg := cfg
		podCfg.Topology = congestion.PodTopology(cfg.Topology.Radix, cfg.Topology.Oversub)
		sys.Congestion = &podCfg
		for p := 0; p < pods; p++ {
			sys.BuildOn(nil, sc.SeedOrDefault()+int64(p)*1000003, hostsPer)
		}
	}
	return nil
}

// benchConfigOf resolves a scenario into the micro-benchmark
// configuration its workload runs: the §V defaults with every field the
// scenario sets.
func benchConfigOf(sc *scenario.Scenario) (core.BenchConfig, error) {
	cfg := core.DefaultBench()
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return cfg, err
	}
	cfg.System = sys
	cfg.Seed = sc.SeedOrDefault()
	switch sc.Mode {
	case "none":
		cfg.Mode = core.NoODP
	case "server":
		cfg.Mode = core.ServerODP
	case "client":
		cfg.Mode = core.ClientODP
	}
	if sc.Size > 0 {
		cfg.Size = sc.Size
	}
	if sc.Ops > 0 {
		cfg.NumOps = sc.Ops
	}
	if sc.QPs > 0 {
		cfg.NumQPs = sc.QPs
	}
	if sc.CACK > 0 {
		cfg.CACK = sc.CACK
	}
	if sc.Retry > 0 {
		cfg.RetryCount = sc.Retry
	}
	cfg.MinRNRDelay = sc.RNRDelay()
	if sc.IntervalMs > 0 {
		cfg.Interval = sc.Interval()
	}
	cfg.DummyPing = sc.DummyPing
	return cfg, nil
}
