package core

import (
	"fmt"
	"time"

	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/parallel"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	"odpsim/internal/telemetry"
)

// This file is the congestion follow-up question the paper could not
// ask on its fixed testbeds: do the ODP pitfalls get better or worse on
// a lossless fabric? The storm workload re-runs the Figure-11
// page-fault flood (driven in the write direction so the storm's own
// data contends in the core) and the Table-13 KNL SparkUCX row on the
// switched fabric of internal/congestion, comparing three fabric
// variants side by side:
//
//   analytic   — the paper's original serialization-only fabric,
//   lossy      — the switched topology with PFC/ECN/DCQCN all off, so
//                the flood tail-drops in the oversubscribed core,
//   (declared) — the scenario's own congestion block (PFC for
//                storm-lossless, PFC+DCQCN for storm-dcqcn).
//
// Every variant runs the same seed, so the rows differ only by fabric.

func init() { scenario.RegisterWorkload(stormWorkload{}) }

type stormWorkload struct{}

func (stormWorkload) Kind() string { return "storm" }

func (stormWorkload) Validate(sc *scenario.Scenario) error {
	if sc.Congestion == nil {
		return fmt.Errorf("scenario %q: storm compares fabric variants, so it needs a congestion block", sc.Name)
	}
	return scenario.RequireTrials(sc)
}

// fabricVariant is one fabric configuration under comparison, in the
// storm and irn-compare tables.
type fabricVariant struct {
	label string
	spec  *scenario.CongestionSpec // nil = analytic fabric
}

// lossyOf copies a congestion block with every relief mechanism (PFC,
// ECN, DCQCN) stripped: the declared topology, switch count, buffers and
// uplink oversubscription, on a fabric that just drops.
func lossyOf(cs *scenario.CongestionSpec) *scenario.CongestionSpec {
	lossy := *cs
	lossy.PFC, lossy.ECN, lossy.DCQCN = false, false, false
	return &lossy
}

// stormVariants derives the three fabric rows from the scenario's block.
// The lossy row shows what the same storm costs when the fabric just
// drops.
func stormVariants(sc *scenario.Scenario) []fabricVariant {
	declared := "switched+pfc"
	if sc.Congestion.DCQCN {
		declared = "switched+pfc+dcqcn"
	}
	return []fabricVariant{
		{label: "analytic", spec: nil},
		{label: "switched lossy", spec: lossyOf(sc.Congestion)},
		{label: declared, spec: sc.Congestion},
	}
}

// floodConfig is the flood the storm and irn-compare workloads run: the
// scenario's micro-benchmark, sending data *toward* the ODP side so the
// storm itself is what contends in the fabric. Server-side ODP drives
// WRITE bursts (RNR NAK → blind go-back-N replays of full data packets),
// while client-side ODP keeps Fig-11's READ shape (the response stream
// contends instead). op names the operation for the header line.
func floodConfig(sc *scenario.Scenario) (cfg BenchConfig, op string, err error) {
	cfg, err = benchConfig(sc)
	if err != nil {
		return cfg, "", err
	}
	if cfg.Mode.Server() {
		cfg.OpOverride = writeOnly
		return cfg, "WRITE", nil
	}
	return cfg, "READ", nil
}

// writeOnly is the WRITE flood's OpOverride.
func writeOnly(int) rnic.SendOp { return rnic.OpWrite }

func (stormWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, op, err := floodConfig(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())

	fmt.Fprintf(out.W, "\nflood (%d %ss × %d B over %d QPs, %s, C_ACK=%d):\n",
		cfg.NumOps, op, cfg.Size, cfg.NumQPs, cfg.Mode, cfg.CACK)
	fmt.Fprintf(out.W, "%-20s %12s %9s %9s %7s %9s %8s %6s\n",
		"fabric", "exec", "retrans", "timeouts", "drops", "pause[us]", "ecn", "cnps")
	// The variants fan across the worker pool on per-worker reused
	// engines. A result's final snapshot lives until its engine's next
	// trial, so each variant renders its row in the callback; the rows
	// print in order afterwards. The Table-13 row below recycles the
	// same engines.
	variants := stormVariants(sc)
	lines := make([]string, len(variants))
	engs := parallel.NewEngines()
	parallel.Run(len(variants), func(w, i int) {
		b := cfg
		b.Eng = engs.Get(w)
		b.System.Congestion = nil
		if spec := variants[i].spec; spec != nil {
			c := spec.Config()
			b.System.Congestion = &c
		}
		r := RunMicrobench(b)
		lines[i] = fmt.Sprintf("%-20s %12v %9d %9d %7.0f %9.0f %8.0f %6.0f\n",
			variants[i].label, time.Duration(r.ExecTime), r.Retransmits, r.Timeouts,
			r.Final.Total(telemetry.SimSwitchDrops),
			r.Final.Total(telemetry.TxPauseDuration),
			r.Final.Total(telemetry.SimSwitchEcnMarked),
			r.Final.Total(telemetry.NpCnpSent))
	})
	for _, line := range lines {
		fmt.Fprint(out.W, line)
	}

	// The Table-13 row: the KNL SparkTC job, ODP disabled vs enabled,
	// on the declared congested fabric. Label stays "KNL (2)" — the
	// calibrated base times are keyed by it.
	knl := sparkucx.RowSpec{Example: sparkucx.SparkTC, Sys: sparkucx.Table13Configs()[0]}
	rows := sparkucx.Measure(sc, []sparkucx.RowSpec{knl}, engs)
	fmt.Fprintf(out.W, "\nTable-13 SparkTC on the congested fabric (%d trials):\n", sc.Trials)
	sparkucx.WriteRows(out.W, rows)
	return nil
}
