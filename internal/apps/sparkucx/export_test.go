package sparkucx

import "odpsim/internal/scenario"

// Table13Rows is table13Rows, for the planner tests that need the
// registered scenarios (package sparkucx_test).
var Table13Rows = table13Rows

// PlanCounts returns how many cells Measure plans for rows under sc and
// how many distinct waves it simulates for them.
func PlanCounts(sc *scenario.Scenario, rows []RowSpec) (cells, distinct int) {
	p := newPlan(sc, rows)
	return len(p.cells), len(p.waves)
}
