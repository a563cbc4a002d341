package sparkucx

import (
	"strings"
	"testing"
)

func knl2() SystemConfig { return Table13Configs()[0] }

func TestDisableMatchesBaseline(t *testing.T) {
	cfg := Config{Example: SparkTC, Sys: knl2(), Seed: 1, SampleWaves: 1}
	r := Run(cfg)
	// Disable ≈ the calibrated base (303 s) plus a small real shuffle.
	if s := r.ExecTime.Seconds(); s < 300 || s > 310 {
		t.Errorf("disable exec = %.1f s, want ≈303", s)
	}
	if r.FloodDetected {
		t.Error("no flood without ODP")
	}
}

func TestEnableDegradesAndFloods(t *testing.T) {
	cfg := Config{Example: SparkTC, Sys: knl2(), Seed: 1, SampleWaves: 1, QPCap: 64}
	dis := Run(cfg)
	cfg.ODP = true
	ena := Run(cfg)
	if ena.ExecTime <= dis.ExecTime {
		t.Errorf("ODP should be slower: %v vs %v", ena.ExecTime, dis.ExecTime)
	}
	if !ena.FloodDetected {
		t.Error("expected retransmission flood")
	}
	ratio := ena.ExecTime.Seconds() / dis.ExecTime.Seconds()
	if ratio < 1.05 || ratio > 8 {
		t.Errorf("ratio = %.2f, want within the paper's 1.0–6.5 ballpark", ratio)
	}
}

func TestMeasureRow(t *testing.T) {
	row := MeasureRow(RecommendationExample, knl2(), 2, 7, 1, nil)
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
		for _, e := range []Example{SparkTC, RecommendationExample, RankingMetricsExample} {
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
	Run(Config{Example: SparkTC, Sys: SystemConfig{Label: "nope"}})
}
