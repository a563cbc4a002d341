package telemetry

import (
	"strings"
	"testing"
)

// buildGoldenRegistry assembles a small fixed registry whose exports the
// golden tests pin byte for byte.
func buildGoldenRegistry() (*Registry, *uint64) {
	type golden struct {
		timeouts, faults uint64
		depth            float64
	}
	r := NewRegistry(Label{"device", "node0"})
	g := &golden{timeouts: 3, faults: 12, depth: 2.5}
	Register(r, &Table[golden]{
		{Name: LocalAckTimeoutErr, Help: "Local ACK Timeout expirations", Label: Label{"qpn", "1"},
			Read: func(g *golden) float64 { return float64(g.timeouts) }},
		{Name: OdpPageFaults, Help: "ODP page faults", Read: func(g *golden) float64 { return float64(g.faults) }},
		{Name: OdpPipelineDepth, Help: "pending ODP work items", Kind: KindGauge, Read: func(g *golden) float64 { return g.depth }},
	}, g)
	return r, &g.timeouts
}

func TestGoldenPrometheus(t *testing.T) {
	r, _ := buildGoldenRegistry()
	var b strings.Builder
	if err := r.Snapshot(1500).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP local_ack_timeout_err Local ACK Timeout expirations
# TYPE local_ack_timeout_err counter
local_ack_timeout_err{device="node0",qpn="1"} 3
# HELP num_page_faults ODP page faults
# TYPE num_page_faults counter
num_page_faults{device="node0"} 12
# HELP pipeline_depth pending ODP work items
# TYPE pipeline_depth gauge
pipeline_depth{device="node0"} 2.5
`
	if got := b.String(); got != want {
		t.Errorf("Prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenSnapshotCSV(t *testing.T) {
	r, _ := buildGoldenRegistry()
	var b strings.Builder
	if err := r.Snapshot(1500).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := `time_ns,name,labels,value
1500,local_ack_timeout_err,"{device=\"node0\",qpn=\"1\"}",3
1500,num_page_faults,"{device=\"node0\"}",12
1500,pipeline_depth,"{device=\"node0\"}",2.5
`
	if got := b.String(); got != want {
		t.Errorf("CSV output:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenTimeSeriesCSV(t *testing.T) {
	r, timeouts := buildGoldenRegistry()
	var ts TimeSeries
	ts.Snaps = append(ts.Snaps, r.Snapshot(0))
	*timeouts = 5
	ts.Snaps = append(ts.Snaps, r.Snapshot(1000))

	var b strings.Builder
	if err := ts.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if strings.Count(got, "time_ns,name,labels,value") != 1 {
		t.Error("header must appear exactly once")
	}
	if !strings.Contains(got, `0,local_ack_timeout_err,"{device=\"node0\",qpn=\"1\"}",3`) ||
		!strings.Contains(got, `1000,local_ack_timeout_err,"{device=\"node0\",qpn=\"1\"}",5`) {
		t.Errorf("missing rows:\n%s", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		42:      "42",
		-7:      "-7",
		2.5:     "2.5",
		1e15:    "1e+15", // beyond exact-int range: float form
		0.03125: "0.03125",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
