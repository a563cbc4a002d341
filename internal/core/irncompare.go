package core

import (
	"fmt"
	"time"

	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	"odpsim/internal/telemetry"
)

// This file asks whether the paper's two pitfalls (pending-window loss
// / packet damming, and the page-status update failure behind packet
// floods) shrink, survive or change shape when the transport stops
// amplifying them. The irn-compare workload reruns one flood shape across every cell of
// {rc, irn} × {lossy, lossless} × {pin, odp, npr}:
//
//   rc        — the hardware go-back-N machine (the paper's transport),
//   irn       — the selective-repeat transport of internal/irn,
//   lossy     — the scenario's declared switched topology with
//               PFC/ECN/DCQCN stripped, so congestion tail-drops,
//   lossless  — the declared congestion block as-is (PFC at least).
//
// Every cell runs the same seed, so rows differ only by transport and
// fabric; the memory-mode sections reuse the mem-compare ordering.

func init() { scenario.RegisterWorkload(irnCompare{}) }

// irnTransports is the comparison order: the baseline go-back-N RC
// machine, then IRN.
var irnTransports = []string{"rc", "irn"}

type irnCompare struct{}

func (irnCompare) Kind() string { return "irn-compare" }

func (irnCompare) Validate(sc *scenario.Scenario) error {
	if sc.Congestion == nil {
		return fmt.Errorf("scenario %q: irn-compare compares lossy vs lossless fabrics, so it needs a congestion block", sc.Name)
	}
	if sc.Transport != nil && sc.Transport.Mode != "" {
		return fmt.Errorf("scenario %q: irn-compare sweeps both transports; transport.mode %q would be ignored",
			sc.Name, sc.Transport.Mode)
	}
	if sc.Memory != nil && sc.Memory.Mode != "" {
		return fmt.Errorf("scenario %q: irn-compare sweeps every memory mode; memory.mode %q would be ignored",
			sc.Name, sc.Memory.Mode)
	}
	return nil
}

// irnFabrics derives the lossy/lossless pair from the scenario's
// congestion block (see lossyOf).
func irnFabrics(sc *scenario.Scenario) []fabricVariant {
	return []fabricVariant{
		{label: "lossy", spec: lossyOf(sc.Congestion)},
		{label: "lossless", spec: sc.Congestion},
	}
}

// irnCell is one comparison cell: the flood on one memory mode,
// transport and fabric.
type irnCell struct {
	cfg    BenchConfig
	tport  string
	fabric string
}

// irnCells lists the cells of the flood base in print order: memory
// mode, then transport, then fabric.
func irnCells(sc *scenario.Scenario, base BenchConfig) []irnCell {
	fabrics := irnFabrics(sc)
	cells := make([]irnCell, 0, len(memModes)*len(irnTransports)*len(fabrics))
	for _, mem := range memModes {
		for _, tr := range irnTransports {
			for _, fb := range fabrics {
				b := base
				b.System.MemMode, b.System.Transport = mem, tr
				c := fb.spec.Config()
				b.System.Congestion = &c
				cells = append(cells, irnCell{cfg: b, tport: tr, fabric: fb.label})
			}
		}
	}
	return cells
}

func (irnCompare) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, op, err := floodConfig(sc)
	if err != nil {
		return err
	}
	// The cells fan across the worker pool on per-worker reused engines.
	// A result's final snapshot lives until its engine's next trial, so
	// each cell renders its row in the callback; the table prints from
	// the line slots afterwards, in cell order.
	cells := irnCells(sc, cfg)
	lines := make([]string, len(cells))
	engs := parallel.NewEngines()
	parallel.Run(len(cells), func(w, i int) {
		c := &cells[i]
		b := c.cfg
		b.Eng = engs.Get(w)
		r := RunMicrobench(b)
		lines[i] = fmt.Sprintf("%-5s %-9s %12v %8d %8d %8d %7d %8.0f %6d %6.0f %6.0f %9.0f %6.0f %9.0f\n",
			c.tport, c.fabric, time.Duration(r.ExecTime),
			r.Retransmits, r.Timeouts, r.RNRNaksSent, r.DammedDrops,
			r.Final.Total(telemetry.SimResponsesDiscarded),
			r.ClientFaults,
			r.Final.Total(telemetry.IrnOooLanded),
			r.Final.Total(telemetry.IrnSackSent),
			r.Final.Total(telemetry.IrnBdpStalls),
			r.Final.Total(telemetry.SimSwitchDrops),
			r.Final.Total(telemetry.TxPauseDuration))
	})
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	fmt.Fprintf(out.W, "\nflood (%d %ss × %d B over %d QPs, %s, C_ACK=%d):\n",
		cfg.NumOps, op, cfg.Size, cfg.NumQPs, cfg.Mode, cfg.CACK)
	for i, line := range lines {
		c := &cells[i]
		if mem := c.cfg.System.MemMode; i == 0 || mem != cells[i-1].cfg.System.MemMode {
			if i > 0 {
				fmt.Fprintln(out.W)
			}
			fmt.Fprintf(out.W, "=== memory: %s ===\n", mem)
			fmt.Fprintf(out.W, "%-5s %-9s %12s %8s %8s %8s %7s %8s %6s %6s %6s %9s %6s %9s\n",
				"tport", "fabric", "exec", "retrans", "timeouts", "rnr_nak", "dammed", "discard", "flt", "ooo", "sack", "bdp_stall", "drops", "pause[us]")
		}
		fmt.Fprint(out.W, line)
	}
	return nil
}
