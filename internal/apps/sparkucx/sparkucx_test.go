package sparkucx

import (
	"strings"
	"testing"

	"odpsim/internal/scenario"
)

func knl2() SystemConfig { return Table13Configs()[0] }

// measureOne measures one row at the given trials and sampled waves.
func measureOne(e Example, sys SystemConfig, trials int, seed int64, waves int) Row {
	sc := &scenario.Scenario{Trials: trials, Seed: seed, Waves: waves}
	return Measure(sc, []RowSpec{{Example: e, Sys: sys}}, nil)[0]
}

func TestDisableMatchesBaseline(t *testing.T) {
	row := measureOne(SparkTC, knl2(), 1, 1, 1)
	// Disable ≈ the calibrated base (303 s) plus a small real shuffle.
	if s := row.Disable.Mean; s < 300 || s > 310 {
		t.Errorf("disable exec = %.1f s, want ≈303", s)
	}
	if row.DisableFloods != 0 {
		t.Error("no flood without ODP")
	}
}

// TestEnableDegradesAndFloods runs KNL's RecommendationExample, whose
// paper count (210 QPs) is below the simulated cap, so every QP the
// paper reports is simulated.
func TestEnableDegradesAndFloods(t *testing.T) {
	row := measureOne(RecommendationExample, knl2(), 1, 1, 1)
	if row.Omitted != 0 {
		t.Fatalf("enable sample failed: %+v", row)
	}
	if row.Enable.Mean <= row.Disable.Mean {
		t.Errorf("ODP should be slower: %.1f vs %.1f s", row.Enable.Mean, row.Disable.Mean)
	}
	if row.EnableFloods != 1 {
		t.Error("expected retransmission flood")
	}
	if row.Ratio < 1.05 || row.Ratio > 8 {
		t.Errorf("ratio = %.2f, want within the paper's 1.0–6.5 ballpark", row.Ratio)
	}
}

func TestMeasureRow(t *testing.T) {
	row := measureOne(RecommendationExample, knl2(), 2, 7, 1)
	if row.Disable.N != 2 {
		t.Fatalf("row = %+v", row)
	}
	if row.Enable.N+row.Omitted != 2 {
		t.Fatalf("enable samples + omitted != trials: %+v", row)
	}
	if row.Ratio <= 1.0 {
		t.Errorf("ratio = %.2f, want > 1", row.Ratio)
	}
	if row.QPs != 210 {
		t.Errorf("QPs = %d", row.QPs)
	}
}

func TestTable13ConfigsShape(t *testing.T) {
	cfgs := Table13Configs()
	if len(cfgs) != 4 {
		t.Fatalf("want 4 system configs")
	}
	for _, sc := range cfgs {
		for _, e := range examples {
			if sc.QPs[e] <= 0 {
				t.Errorf("%s/%v: missing QP count", sc.Label, e)
			}
			w := exampleWorkload(e)
			if _, ok := w.base[sc.Label]; !ok {
				t.Errorf("%s/%v: missing baseline", sc.Label, e)
			}
		}
	}
}

func TestExampleStrings(t *testing.T) {
	if SparkTC.String() != "SparkTC" {
		t.Error("SparkTC name")
	}
	if !strings.Contains(RecommendationExample.String(), "Recommendation") {
		t.Error("Recommendation name")
	}
	if !strings.Contains(Example(9).String(), "9") {
		t.Error("unknown example should render number")
	}
}

func TestUnknownBaselinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown system label should panic")
		}
	}()
	measureOne(SparkTC, SystemConfig{Label: "nope"}, 1, 1, 1)
}
