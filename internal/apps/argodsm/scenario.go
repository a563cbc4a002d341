package argodsm

import (
	"fmt"

	"odpsim/internal/cluster"
	"odpsim/internal/scenario"
	"odpsim/internal/stats"
)

// The Figure-12 experiment as a scenario workload: init+finalize
// distributions per system, with and without ODP (`odpsim run fig12`).

func init() { scenario.RegisterWorkload(workload{}) }

type workload struct{}

func (workload) Kind() string { return "argodsm" }

func (workload) Validate(sc *scenario.Scenario) error {
	if err := scenario.RequireTrials(sc); err != nil {
		return err
	}
	if n := len(sc.HistHi); n > 0 && len(sc.Systems) > 0 && n != len(sc.Systems) {
		return fmt.Errorf("scenario %q: hist_hi has %d entries for %d systems", sc.Name, n, len(sc.Systems))
	}
	return nil
}

func (workload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	systems, err := sc.ResolvedSystems([]cluster.System{cluster.KNL(), cluster.ReedbushH()})
	if err != nil {
		return err
	}
	for i, sys := range systems {
		fmt.Fprintf(out.W, "\n=== %s ===\n", sys.Name)
		for _, odp := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.System = sys
			cfg.ODP = odp
			cfg.Seed = sc.SeedOrDefault()
			if sc.MemoryBytes > 0 {
				cfg.MemorySize = sc.MemoryBytes
			}
			hi := 6.0
			if sys.Name == cluster.ReedbushH().Name {
				hi = 4.0
			}
			if i < len(sc.HistHi) {
				hi = sc.HistHi[i]
			}
			times, h := Distribution(cfg, sc.Trials, hi)
			s := stats.Summarize(times)
			label := "w/o ODP"
			if odp {
				label = "w ODP"
			}
			fmt.Fprintf(out.W, "\n%s (avg: %.2f s):\n%s", label, s.Mean, h.Bars("s"))
		}
	}
	return nil
}
