package perftest

import (
	"fmt"

	"odpsim/internal/core"
	"odpsim/internal/scenario"
)

// The perftest suite as a scenario workload: ib_read_lat / ib_read_bw /
// the registration-mode comparison, selected by the scenario's renderer,
// each printed in perftest's own report format.

func init() { scenario.RegisterWorkload(workload{}) }

type workload struct{}

func (workload) Kind() string { return "perftest" }

func (workload) Validate(sc *scenario.Scenario) error {
	switch sc.Renderer {
	case "", "lat", "bw", "compare":
		return nil
	}
	return fmt.Errorf("scenario %q: unknown perftest renderer %q (want lat, bw or compare)", sc.Name, sc.Renderer)
}

func (workload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return err
	}
	cfg := DefaultConfig()
	cfg.System = sys
	cfg.Seed = sc.SeedOrDefault()
	if sc.Size > 0 {
		cfg.Size = sc.Size
	}
	if sc.Ops > 0 {
		cfg.Iters = sc.Ops
	}
	if sc.Window > 0 {
		cfg.Window = sc.Window
	}
	cfg.TouchPages = sc.Pages
	cfg.Implicit = sc.Implicit
	cfg.Prefetch = sc.Prefetch
	cfg.Mode = core.ODPModeOf(sc.Mode, core.NoODP)

	switch sc.Renderer {
	case "bw":
		fmt.Fprintf(out.W, "RDMA READ bandwidth, %s, %s, window %d\n\n", sys.Name, cfg.Mode, cfg.Window)
		fmt.Fprintln(out.W, BandwidthHeader)
		fmt.Fprintln(out.W, ReadBW(cfg))
	case "compare":
		fmt.Fprintf(out.W, "RDMA READ latency by registration mode, %s\n\n", sys.Name)
		fmt.Fprint(out.W, CompareModes(cfg))
	default:
		fmt.Fprintf(out.W, "RDMA READ latency, %s, %s\n\n", sys.Name, cfg.Mode)
		fmt.Fprintln(out.W, LatencyHeader)
		fmt.Fprintln(out.W, ReadLat(cfg))
	}
	return nil
}
