// Package paper registers the named scenarios behind every figure and
// table of the evaluation — `odpsim run fig4` is Figure 4, `odpsim run
// tab13` is Table 13. Importing it (usually blank) pulls in every
// workload implementation, so the registry is complete and eagerly
// validated as soon as the package initializes.
//
// Each scenario's full-fidelity run regenerates its results/ golden
// byte-for-byte; the Quick profiles are the reduced grids and trial
// counts `odpsim run -quick` applies.
package paper

import (
	"odpsim/internal/scenario"

	// Workload implementations self-register on import.
	_ "odpsim/internal/apps/argodsm"
	_ "odpsim/internal/apps/kvstore"
	_ "odpsim/internal/apps/sparkucx"
	_ "odpsim/internal/core"
	_ "odpsim/internal/perftest"
)

func init() {
	// Registration order is the paper's artifact order; `odpsim list`
	// and `odpsim run --all` follow it.
	scenario.Register(scenario.Scenario{
		Name:     "fig1-server",
		Title:    "Figure 1 (left): single READ, server-side ODP, packet workflow",
		Workload: "trace",
		Ops:      1,
		Mode:     "server",
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig1-client",
		Title:    "Figure 1 (right): single READ, client-side ODP, packet workflow",
		Workload: "trace",
		Ops:      1,
		Mode:     "client",
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig2",
		Title:    "Figure 2: measured timeout T_o [s] by C_ACK (wrong-LID probe, C_retry=7)",
		Workload: "timeout-sweep",
		Grid: &scenario.Grid{List: []int{
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}},
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig4",
		Title:    "Figure 4: mean exec time [s] of 2 READs vs interval (both-side ODP, {trials} trials)",
		Workload: "exec-sweep",
		Trials:   10,
		Grid:     &scenario.Grid{ToMs: 6, StepMs: 0.25},
		Quick:    &scenario.Quick{Trials: 5, GridScale: 4},
	})
	scenario.Register(scenario.Scenario{
		Name:       "fig5",
		Title:      "Figure 5: packet damming and the timeout (2 READs, 1 ms apart)",
		Workload:   "trace",
		Ops:        2,
		Mode:       "server",
		IntervalMs: 1,
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig6a",
		Title:    "Figure 6a: P(timeout) [%] vs interval, server-side ODP ({trials} trials)",
		Workload: "timeout-prob-sweep",
		Mode:     "server",
		Trials:   10,
		Renderer: "per-series",
		Grid:     &scenario.Grid{ToMs: 6, StepMs: 0.25},
		Series: []scenario.Variant{
			{Label: "0.01 ms", RNRDelayMs: 0.01},
			{Label: "1.28 ms", RNRDelayMs: 1.28},
			{Label: "10.24 ms", RNRDelayMs: 10.24, Grid: &scenario.Grid{ToMs: 40, StepMs: 2}},
		},
		Quick: &scenario.Quick{Trials: 5, GridScale: 4},
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig6b",
		Title:    "Figure 6b: P(timeout) [%] vs interval, client-side ODP ({trials} trials)",
		Workload: "timeout-prob-sweep",
		Mode:     "client",
		Trials:   10,
		Grid:     &scenario.Grid{ToMs: 6, StepMs: 0.1},
		Series:   []scenario.Variant{{Label: "1.28 ms"}},
		Quick:    &scenario.Quick{Trials: 5, GridScale: 5},
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig7",
		Title:    "Figure 7: P(timeout) [%] vs interval for 2/3/4 READs (both-side ODP, {trials} trials)",
		Workload: "timeout-prob-sweep",
		Trials:   10,
		Grid:     &scenario.Grid{ToMs: 6, StepMs: 0.25},
		Series: []scenario.Variant{
			{Label: "2 operations", Ops: 2},
			{Label: "3 operations", Ops: 3},
			{Label: "4 operations", Ops: 4},
		},
		Quick: &scenario.Quick{Trials: 5, GridScale: 4},
	})
	scenario.Register(scenario.Scenario{
		Name:       "fig8",
		Title:      "Figure 8: the PSN-sequence-error rescue (3 READs, 2.5 ms apart)",
		Workload:   "trace",
		Ops:        3,
		Mode:       "server",
		IntervalMs: 2.5,
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig9",
		Title:    "Figure 9: {ops} READs × 100 B (200 pages), C_ACK=18, vs #QPs",
		Workload: "qp-sweep",
		Ops:      8192,
		CACK:     18,
		Grid:     &scenario.Grid{List: []int{1, 2, 5, 10, 25, 50, 100, 150, 200}},
		Slow:     true,
		Quick:    &scenario.Quick{Ops: 2048, List: []int{1, 10, 50, 200}},
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig11",
		Title:    "Figure 11 ({ops} operations): cumulative completions per page [ms grid]",
		Workload: "progress",
		Mode:     "client",
		Size:     32,
		QPs:      128,
		CACK:     18,
		Series: []scenario.Variant{
			{Ops: 128, StepMs: 1},
			{Ops: 512, StepMs: 100},
		},
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig12",
		Title:    "Figure 12: ArgoDSM init+finalize, 10 MB, {trials} trials",
		Workload: "argodsm",
		Trials:   100,
		Quick:    &scenario.Quick{Trials: 40},
	})
	scenario.Register(scenario.Scenario{
		Name:     "tab13",
		Title:    "Table 13: SparkUCX examples, {trials} trials, ODP enabled vs disabled",
		Workload: "sparkucx",
		Trials:   10,
		Slow:     true,
		Quick:    &scenario.Quick{Trials: 5},
	})
	scenario.Register(scenario.Scenario{
		Name:     "storm-lossless",
		Title:    "Retransmission storm on a lossless fabric: write flood + Table-13 SparkTC, 2 switches, PFC",
		Workload: "storm",
		Mode:     "server",
		Size:     512,
		QPs:      8,
		CACK:     8,
		Ops:      512,
		Trials:   5,
		Congestion: &scenario.CongestionSpec{
			BufferKB: 2, XOffKB: 1.5, XOnKB: 0.5,
			PFC: true,
		},
		Quick: &scenario.Quick{Trials: 2, Ops: 128, Waves: 1},
	})
	scenario.Register(scenario.Scenario{
		Name:     "storm-dcqcn",
		Title:    "Retransmission storm under DCQCN: write flood + Table-13 SparkTC, 2 switches, PFC+ECN+DCQCN",
		Workload: "storm",
		Mode:     "server",
		Size:     512,
		QPs:      8,
		CACK:     8,
		Ops:      512,
		Trials:   5,
		Congestion: &scenario.CongestionSpec{
			BufferKB: 2, XOffKB: 1.5, XOnKB: 0.5,
			PFC:   true,
			DCQCN: true,
		},
		Quick: &scenario.Quick{Trials: 2, Ops: 128, Waves: 1},
	})
	scenario.Register(scenario.Scenario{
		Name:     "perf-compare",
		Title:    "perftest: READ latency by registration mode (refs [19], [20])",
		Workload: "perftest",
		Renderer: "compare",
	})

	// Mitigation comparison: the Figure-4 sweep, Table 13 and the PFC
	// storm rerun under pin | odp | npr — the "does NP-RDMA dodge both
	// pitfalls?" result set (NP-RDMA in PAPERS.md).
	scenario.Register(scenario.Scenario{
		Name:     "npr-exec",
		Title:    "NP-RDMA comparison (Figure 4): mean exec time [s] of 2 READs vs interval ({trials} trials)",
		Workload: "mem-compare",
		Inner:    "exec-sweep",
		Trials:   5,
		Grid:     &scenario.Grid{ToMs: 6, StepMs: 0.5},
		Quick:    &scenario.Quick{Trials: 2, GridScale: 2},
	})
	scenario.Register(scenario.Scenario{
		Name:     "npr-tab13",
		Title:    "NP-RDMA comparison (Table 13): SparkUCX examples, {trials} trials, ODP enabled vs disabled",
		Workload: "mem-compare",
		Inner:    "sparkucx",
		Trials:   3,
		Slow:     true,
		Quick:    &scenario.Quick{Trials: 1},
	})
	scenario.Register(scenario.Scenario{
		Name:     "npr-storm",
		Title:    "NP-RDMA comparison (storm): write flood + Table-13 SparkTC, 2 switches, PFC",
		Workload: "mem-compare",
		Inner:    "storm",
		Mode:     "server",
		Size:     512,
		QPs:      8,
		CACK:     8,
		Ops:      512,
		Trials:   3,
		Congestion: &scenario.CongestionSpec{
			BufferKB: 2, XOffKB: 1.5, XOnKB: 0.5,
			PFC: true,
		},
		Quick: &scenario.Quick{Trials: 2, Ops: 128, Waves: 1},
	})

	// Clos-topology collectives: the patterns a chain cannot express.
	// Incast converges eight senders on one sink, so the contention
	// lives on the sink leaf's downlink and the spine uplinks feeding
	// it; shuffle is the SparkUCX exchange shape,
	// spreading pauses across every leaf. Both run on a 2-tier
	// leaf-spine (radix 4: four leaves, two spines) with 4x
	// oversubscribed uplinks and PFC on.
	scenario.Register(scenario.Scenario{
		Name:     "incast-clos",
		Title:    "Incast on a leaf-spine Clos: 8->1 WRITE convergence under pin | odp | npr",
		Workload: "mem-compare",
		Inner:    "collective",
		Pattern:  "incast",
		Nodes:    9,
		Mode:     "server",
		Size:     1024,
		Ops:      32,
		CACK:     8,
		Congestion: &scenario.CongestionSpec{
			Topology: &scenario.TopologySpec{Kind: "clos", Tiers: 2, Radix: 4, Oversubscription: 4},
			PFC:      true,
			XOffKB:   1,
			XOnKB:    0.5,
		},
		Quick: &scenario.Quick{Ops: 8},
	})
	// IRN transport comparison (Mittal et al. in PAPERS.md): the storm,
	// damming and incast shapes rerun across {rc, irn} × {lossy,
	// lossless} × {pin, odp, npr}. Each asks whether a pitfall survives
	// a transport that recovers per-packet instead of go-back-N: the
	// storm's retransmission amplification, the ConnectX-4 damming
	// window, and incast fan-in behind PFC vs tail-drop.
	scenario.Register(scenario.Scenario{
		Name:     "irn-storm",
		Title:    "IRN vs go-back-N (storm shape): write flood, 2 switches, rc|irn x lossy|lossless x pin|odp|npr",
		Workload: "irn-compare",
		Mode:     "server",
		Size:     512,
		QPs:      8,
		CACK:     8,
		Ops:      512,
		Congestion: &scenario.CongestionSpec{
			BufferKB: 2, XOffKB: 1.5, XOnKB: 0.5,
			PFC: true,
		},
		Quick: &scenario.Quick{Ops: 128},
	})
	scenario.Register(scenario.Scenario{
		Name:       "irn-damming",
		Title:      "IRN vs go-back-N (damming shape): paced READs into ODP faults, rc|irn x lossy|lossless x pin|odp|npr",
		Workload:   "irn-compare",
		Mode:       "server",
		Size:       100,
		QPs:        4,
		CACK:       8,
		Ops:        64,
		IntervalMs: 0.1,
		Congestion: &scenario.CongestionSpec{
			BufferKB: 2, XOffKB: 1.5, XOnKB: 0.5,
			PFC: true,
		},
		Quick: &scenario.Quick{Ops: 16},
	})
	scenario.Register(scenario.Scenario{
		Name:     "irn-incast",
		Title:    "IRN vs go-back-N (incast shape): 8-QP WRITE fan-in on a leaf-spine Clos, rc|irn x lossy|lossless x pin|odp|npr",
		Workload: "irn-compare",
		Mode:     "server",
		Size:     2048,
		QPs:      8,
		CACK:     8,
		Ops:      512,
		Congestion: &scenario.CongestionSpec{
			Topology: &scenario.TopologySpec{Kind: "clos", Tiers: 2, Radix: 4, Oversubscription: 4},
			PFC:      true,
			XOffKB:   1,
			XOnKB:    0.5,
		},
		Quick: &scenario.Quick{Ops: 16},
	})
	scenario.Register(scenario.Scenario{
		Name:     "shuffle-clos",
		Title:    "All-to-all shuffle on a leaf-spine Clos: 6 nodes, server-side ODP, PFC",
		Workload: "collective",
		Pattern:  "shuffle",
		Nodes:    6,
		Mode:     "server",
		Size:     1024,
		Ops:      16,
		CACK:     8,
		Congestion: &scenario.CongestionSpec{
			Topology: &scenario.TopologySpec{Kind: "clos", Tiers: 2, Radix: 4, Oversubscription: 4},
			PFC:      true,
			XOffKB:   1,
			XOnKB:    0.5,
		},
		Quick: &scenario.Quick{Ops: 4},
	})

	// kv-serve is the fabric-scale extrapolation: a key-value serving
	// tier across the 16 pods of a radix-16 fat-tree, 64 open-loop GET
	// clients per pod against one ODP-backed server each, replication
	// digests converging on pod 0 over the core. Pod-local traffic means
	// each pod runs on an engine of its own: all 16 run dry in parallel
	// on the `-shards` workers, and each source pod's core link tallies
	// the digests it sends.
	// The report leads with the latency percentiles where the paper's
	// RNR storms surface at serving scale.
	scenario.Register(scenario.Scenario{
		Name:     "kv-serve",
		Title:    "KV serving tier on a radix-16 fat-tree: 1024 open-loop GET clients vs server-side ODP",
		Workload: "kv-serve",
		Nodes:    1040, // 16 pods x (1 server + 64 clients)
		Shards:   4,    // default worker lanes; any value gives the same bytes
		Mode:     "server",
		Size:     1024,
		Ops:      16,
		CACK:     8,
		Congestion: &scenario.CongestionSpec{
			Topology: &scenario.TopologySpec{Kind: "clos", Tiers: 3, Radix: 16, Oversubscription: 4},
			PFC:      true,
			XOffKB:   1,
			XOnKB:    0.5,
		},
		Quick: &scenario.Quick{Ops: 4},
	})
}
