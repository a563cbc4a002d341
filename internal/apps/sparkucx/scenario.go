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

// examples lists Table 13's examples in print order.
var examples = []Example{SparkTC, RecommendationExample, RankingMetricsExample}

// table13Rows lists Table 13's rows in print order: each example across
// the four system configurations.
func table13Rows() []RowSpec {
	configs := Table13Configs()
	var rows []RowSpec
	for _, ex := range examples {
		for _, sys := range configs {
			rows = append(rows, RowSpec{Example: ex, Sys: sys})
		}
	}
	return rows
}

func (scenarioWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	// One engine per worker for the whole run: every wave recycles its
	// arenas, which die with the run.
	rows := Measure(sc, table13Rows(), parallel.NewEngines())
	perExample := len(rows) / len(examples)
	for i, ex := range examples {
		fmt.Fprintf(out.W, "\n=== %v ===\n", ex)
		WriteRows(out.W, rows[i*perExample:(i+1)*perExample])
	}
	return nil
}
