package sparkucx_test

import (
	"testing"

	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

func lookup(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestPlanDeduplicatesWaves pins how many cells the registered
// Table-13 runs plan and how many distinct waves they simulate. Table
// 13 rests on 6 wave shapes: ABCI (4) is ABCI (2)'s system, SparkTC and
// RankingMetrics share a fetch shape, and every paper QP count but KNL
// RecommendationExample's is above the cap. The storm row repeats none.
func TestPlanDeduplicatesWaves(t *testing.T) {
	small := lookup(t, "tab13")
	small.Trials, small.Waves = 1, 1
	// A declared congestion block is resolved for every row; equal
	// systems must still key equal waves.
	congested := small
	congested.Congestion = &scenario.CongestionSpec{PFC: true}
	knl := []sparkucx.RowSpec{{Example: sparkucx.SparkTC, Sys: sparkucx.Table13Configs()[0]}}
	for _, c := range []struct {
		name            string
		sc              scenario.Scenario
		rows            []sparkucx.RowSpec
		cells, distinct int
	}{
		{"tab13 1 trial 1 wave", small, sparkucx.Table13Rows(), 24, 12},
		{"tab13 registered", lookup(t, "tab13"), sparkucx.Table13Rows(), 480, 240},
		{"tab13 congested", congested, sparkucx.Table13Rows(), 24, 12},
		{"storm-lossless row", lookup(t, "storm-lossless"), knl, 20, 20},
	} {
		cells, distinct := sparkucx.PlanCounts(&c.sc, c.rows)
		if cells != c.cells || distinct != c.distinct {
			t.Errorf("%s: %d cells, %d distinct waves; want %d, %d", c.name, cells, distinct, c.cells, c.distinct)
		}
	}
}
