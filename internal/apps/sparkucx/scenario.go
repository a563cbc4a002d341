package sparkucx

import (
	"fmt"

	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
)

// Table 13 as a scenario workload: the three Spark examples across the
// four system configurations, ODP enabled vs disabled (`odpsim run
// tab13`).

func init() { scenario.RegisterWorkload(scenarioWorkload{}) }

type scenarioWorkload struct{}

func (scenarioWorkload) Kind() string { return "sparkucx" }

func (scenarioWorkload) Validate(sc *scenario.Scenario) error {
	return scenario.RequireTrials(sc)
}

func (scenarioWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	waves := sc.Waves
	if waves == 0 {
		waves = 2
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	configs := Table13Configs()
	for i := range configs {
		configs[i].System = sc.ApplyFaults(configs[i].System)
	}
	// One engine per worker for the whole run: every row's waves
	// recycle its arenas, which die with the run.
	engs := parallel.NewEngines()
	for _, ex := range []Example{SparkTC, RecommendationExample, RankingMetricsExample} {
		fmt.Fprintf(out.W, "\n=== %v ===\n", ex)
		fmt.Fprintf(out.W, "%-16s %6s %16s %16s %8s %8s\n", "", "QPs", "Disable [s]", "Enable [s]", "ratio", "omitted")
		for _, cfg := range configs {
			row := MeasureRow(ex, cfg, sc.Trials, sc.SeedOrDefault(), waves, engs)
			fmt.Fprintf(out.W, "%-16s %6d %9.1f ±%4.1f %9.1f ±%4.1f %8.2f %8d\n",
				row.Label, row.QPs,
				row.Disable.Mean, row.Disable.Std,
				row.Enable.Mean, row.Enable.Std,
				row.Ratio, row.Omitted)
		}
	}
	return nil
}
