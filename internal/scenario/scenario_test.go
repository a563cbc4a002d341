package scenario

import (
	"bytes"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// fakeWorkload lets the package tests exercise validation and execution
// without importing any implementation package.
type fakeWorkload struct{ kind string }

func (f fakeWorkload) Kind() string { return f.kind }

func (f fakeWorkload) Validate(sc *Scenario) error { return RequireTrials(sc) }

func (f fakeWorkload) Run(sc *Scenario, out *Output) error {
	out.W.Write([]byte("ran " + sc.Name + "\n"))
	return nil
}

func init() { RegisterWorkload(fakeWorkload{kind: "fake"}) }

func valid() Scenario {
	return Scenario{Name: "t", Workload: "fake", Trials: 3}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(sc *Scenario) { sc.Name = "" }, "missing name"},
		{"missing workload", func(sc *Scenario) { sc.Workload = "" }, "missing workload"},
		{"unknown workload", func(sc *Scenario) { sc.Workload = "nope" }, "unknown workload"},
		{"unknown mode", func(sc *Scenario) { sc.Mode = "sideways" }, "unknown ODP mode"},
		{"unknown system", func(sc *Scenario) { sc.System = "Cray" }, "unknown system"},
		{"ambiguous system", func(sc *Scenario) { sc.System = "Reed" }, "ambiguous"},
		{"unknown listed system", func(sc *Scenario) { sc.Systems = []string{"KNL", "Cray"} }, "unknown system"},
		{"negative trials", func(sc *Scenario) { sc.Trials = -1 }, "must not be negative"},
		{"negative rnr", func(sc *Scenario) { sc.RNRDelayMs = -0.5 }, "must not be negative"},
		{"loss out of range", func(sc *Scenario) { sc.Faults.LossRate = 1.0 }, "loss_rate"},
		{"negative loss", func(sc *Scenario) { sc.Faults.LossRate = -0.1 }, "loss_rate"},
		{"negative fault scale", func(sc *Scenario) { sc.Faults.PageFaultScale = -1 }, "page_fault_scale"},
		{"empty grid", func(sc *Scenario) { sc.Grid = &Grid{} }, "is empty"},
		{"grid list+range", func(sc *Scenario) { sc.Grid = &Grid{ToMs: 5, StepMs: 1, List: []int{1}} }, "mixes"},
		{"grid zero step", func(sc *Scenario) { sc.Grid = &Grid{ToMs: 5} }, "positive step"},
		{"grid backwards", func(sc *Scenario) { sc.Grid = &Grid{FromMs: 5, ToMs: 1, StepMs: 1} }, "backwards"},
		{"grid negative start", func(sc *Scenario) { sc.Grid = &Grid{FromMs: -1, ToMs: 1, StepMs: 1} }, "below zero"},
		{"series bad grid", func(sc *Scenario) { sc.Series = []Variant{{Grid: &Grid{ToMs: 3}}} }, "series[0].grid"},
		{"series negative ops", func(sc *Scenario) { sc.Series = []Variant{{Ops: -2}} }, "negative field"},
		{"congestion negative buffer", func(sc *Scenario) { sc.Congestion = &CongestionSpec{BufferKB: -4} }, "buffer_kb"},
		{"congestion xoff below xon", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{PFC: true, XOffKB: 1, XOnKB: 2}
		}, "xoff_kb"},
		{"congestion xoff below default xon", func(sc *Scenario) {
			// XOn is unset, so the effective 2 KB default applies.
			sc.Congestion = &CongestionSpec{PFC: true, XOffKB: 1}
		}, "xoff_kb"},
		{"unknown memory mode", func(sc *Scenario) {
			sc.Memory = &MemorySpec{Mode: "hugepages"}
		}, "memory mode"},
		{"negative pool", func(sc *Scenario) {
			sc.Memory = &MemorySpec{Mode: "npr", PoolKB: -4}
		}, "pool_kb"},
		{"pool without npr", func(sc *Scenario) {
			sc.Memory = &MemorySpec{Mode: "odp", PoolKB: 64}
		}, "pool_kb"},
		{"unknown transport mode", func(sc *Scenario) {
			sc.Transport = &TransportSpec{Mode: "quic"}
		}, "transport mode"},
		{"topology unknown kind", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "torus"}}
		}, "topology kind"},
		{"topology missing kind", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Radix: 4}}
		}, "topology kind"},
		{"chain with radix", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "chain", Radix: 4}}
		}, "tiers or radix"},
		{"chain negative switches", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "chain", Switches: -2}}
		}, "switches"},
		{"clos with switches", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "clos", Switches: 3}}
		}, "not switches"},
		{"clos bad tiers", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "clos", Tiers: 5}}
		}, "tiers"},
		{"clos odd radix", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "clos", Radix: 3}}
		}, "radix"},
		{"topology oversub below 1", func(sc *Scenario) {
			sc.Congestion = &CongestionSpec{Topology: &TopologySpec{Kind: "clos", Oversubscription: 0.5}}
		}, "oversubscription"},
	}
	for _, c := range cases {
		sc := valid()
		c.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, sc)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestCongestionValidateNamesFirstField pins the error's field: with
// negative switches and buffer_kb, validation names switches, the first
// in field order, every time (it once ranged over a map and named either).
func TestCongestionValidateNamesFirstField(t *testing.T) {
	sc := valid()
	sc.Congestion = &CongestionSpec{Switches: -1, BufferKB: -4}
	for i := 0; i < 50; i++ {
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), "congestion.switches") {
			t.Fatalf("validation %d: error %v, want it to name congestion.switches", i, err)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	sc := valid()
	sc.System = "KNL" // unambiguous prefix
	sc.Systems = []string{"Reedbush-H", "ABCI"}
	sc.Mode = "server"
	sc.Faults = Faults{LossRate: 0.01, PageFaultScale: 2}
	sc.Grid = &Grid{ToMs: 6, StepMs: 0.25}
	sc.Series = []Variant{{Label: "a", Ops: 3, Grid: &Grid{List: []int{1, 2}}}}
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGridTimes(t *testing.T) {
	g := &Grid{ToMs: 6, StepMs: 0.25}
	ts := g.Times()
	if len(ts) != 25 {
		t.Fatalf("0..6/0.25 should have 25 points, got %d", len(ts))
	}
	if ts[0] != 0 || ts[24] != sim.FromMillis(6) {
		t.Errorf("endpoints: %v .. %v", ts[0], ts[24])
	}
	// The ulp-drift guard: the 0.1 ms grid's points land exactly.
	for i, x := range MsRange(0, 6, 0.1) {
		if want := sim.FromMillis(float64(i) * 0.1); x != want && i != 8 {
			// 0.8 ms is the historical ulp victim; FromMillis(0.8) itself
			// rounds the same way, so equality must hold everywhere.
			t.Fatalf("point %d = %v, want %v", i, x, want)
		}
	}
}

func TestApplyQuick(t *testing.T) {
	sc := valid()
	sc.Ops = 100
	sc.Waves = 8
	sc.Grid = &Grid{ToMs: 6, StepMs: 0.25}
	sc.Series = []Variant{{Label: "x", Grid: &Grid{ToMs: 40, StepMs: 2}}}
	sc.Quick = &Quick{Trials: 2, GridScale: 4, Ops: 10, Waves: 1}
	q := sc.ApplyQuick()
	if q.Trials != 2 || q.Ops != 10 || q.Waves != 1 {
		t.Errorf("quick overrides not applied: %+v", q)
	}
	if q.Grid.StepMs != 1.0 || q.Series[0].Grid.StepMs != 8.0 {
		t.Errorf("grid scaling: main %v series %v", q.Grid.StepMs, q.Series[0].Grid.StepMs)
	}
	// The original must be untouched (grids are copied before scaling).
	if sc.Grid.StepMs != 0.25 || sc.Series[0].Grid.StepMs != 2 {
		t.Errorf("ApplyQuick mutated the original: %+v", sc.Grid)
	}
	// Scenarios without a profile pass through unchanged.
	plain := valid()
	if got := plain.ApplyQuick(); got.Trials != plain.Trials {
		t.Error("no-profile scenario changed")
	}
}

func TestTitleExpansion(t *testing.T) {
	sc := valid()
	sc.Title = "T ({trials} trials, {ops} ops)"
	sc.Trials = 7
	sc.Series = []Variant{{Ops: 128}, {Ops: 512}}
	if got := sc.ExpandedTitle(); got != "T (7 trials, 128 ops)" {
		t.Errorf("ExpandedTitle = %q", got)
	}
	if got := sc.VariantTitle(sc.Series[1]); got != "T (7 trials, 512 ops)" {
		t.Errorf("VariantTitle = %q", got)
	}
}

func TestResolvedVariantsInherit(t *testing.T) {
	sc := valid()
	sc.Ops = 4
	sc.RNRDelayMs = 1.28
	sc.StepMs = 2
	sc.Grid = &Grid{List: []int{1}}
	sc.Series = []Variant{{Label: "a"}, {Label: "b", Ops: 9, Grid: &Grid{List: []int{2}}}}
	vs := sc.ResolvedVariants()
	if vs[0].Ops != 4 || vs[0].RNRDelayMs != 1.28 || vs[0].StepMs != 2 || vs[0].Grid != sc.Grid {
		t.Errorf("variant 0 did not inherit: %+v", vs[0])
	}
	if vs[1].Ops != 9 || vs[1].Grid.List[0] != 2 {
		t.Errorf("variant 1 overrides lost: %+v", vs[1])
	}
	// No series: the scenario itself is the single variant.
	sc.Series = nil
	if vs := sc.ResolvedVariants(); len(vs) != 1 || vs[0].Ops != 4 {
		t.Errorf("grid-less variants: %+v", vs)
	}
}

func TestFaultKnobsReachSystems(t *testing.T) {
	sc := valid()
	sc.Faults = Faults{LossRate: 0.05, PageFaultScale: 3}
	sys, err := sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.LossRate != 0.05 || sys.FaultScale != 3 {
		t.Errorf("fault knobs not routed: %+v", sys)
	}
	many, err := sc.ResolvedSystems(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 0 {
		t.Errorf("no systems, no defaults → empty, got %d", len(many))
	}
	sc.Systems = []string{"KNL", "ABCI"}
	many, err = sc.ResolvedSystems(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range many {
		if s.LossRate != 0.05 {
			t.Errorf("%s missing loss rate", s.Name)
		}
	}
}

func TestCongestionSpecReachesSystems(t *testing.T) {
	sc := valid()
	sc.Congestion = &CongestionSpec{
		Switches: 3, BufferKB: 4, PFC: true, XOffKB: 3, XOnKB: 1,
		ECNThresholdKB: 1, DCQCN: true,
	}
	sys, err := sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Congestion
	if cfg == nil {
		t.Fatal("congestion block did not reach the system")
	}
	if cfg.Switches != 3 || cfg.BufferBytes != 4<<10 || !cfg.PFC ||
		cfg.XOffBytes != 3<<10 || cfg.XOnBytes != 1<<10 ||
		cfg.ECNThresholdBytes != 1<<10 || !cfg.DCQCN {
		t.Errorf("spec not mapped: %+v", cfg)
	}
	// Unset fields keep the package defaults, and an empty block is a
	// valid "switched model, default topology" selection.
	if cfg.UplinkFactor != 4 {
		t.Errorf("unset uplink_factor should default to 4, got %v", cfg.UplinkFactor)
	}
	sc.Congestion = &CongestionSpec{}
	if err := sc.Validate(); err != nil {
		t.Fatalf("empty congestion block: %v", err)
	}
	sys, err = sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Congestion == nil || sys.Congestion.BufferBytes != 8<<10 {
		t.Errorf("empty block should select defaults: %+v", sys.Congestion)
	}
	// No block, no switched model.
	sc.Congestion = nil
	sys, err = sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Congestion != nil {
		t.Error("nil spec block must leave System.Congestion nil")
	}
}

func TestMemorySpecReachesSystems(t *testing.T) {
	sc := valid()
	sc.Memory = &MemorySpec{Mode: "npr", PoolKB: 16}
	sys, err := sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.MemMode != "npr" || sys.NPRPoolBytes != 16<<10 {
		t.Errorf("memory block not routed: mode %q pool %d", sys.MemMode, sys.NPRPoolBytes)
	}
	// No block: the defaults stay zero so cluster keeps its odp path.
	sc.Memory = nil
	sys, err = sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.MemMode != "" || sys.NPRPoolBytes != 0 {
		t.Errorf("nil memory block must leave system defaults: %+v", sys)
	}
}

func TestTransportSpecReachesSystems(t *testing.T) {
	sc := valid()
	sc.Transport = &TransportSpec{Mode: "irn"}
	sys, err := sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Transport != "irn" {
		t.Errorf("transport block not routed: %q", sys.Transport)
	}
	// No block: the default stays empty so cluster keeps go-back-N.
	sc.Transport = nil
	sys, err = sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Transport != "" {
		t.Errorf("nil transport block must leave the system default: %q", sys.Transport)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sc := valid()
	sc.Title = "spec test"
	sc.System = "KNL"
	sc.Grid = &Grid{ToMs: 6, StepMs: 0.5}
	sc.Series = []Variant{{Label: "a", RNRDelayMs: 0.01}}
	sc.Faults = Faults{LossRate: 0.02}
	sc.Congestion = &CongestionSpec{PFC: true, XOffKB: 6, XOnKB: 2, DCQCN: true}
	sc.Memory = &MemorySpec{Mode: "npr", PoolKB: 64}
	sc.Transport = &TransportSpec{Mode: "irn"}
	sc.Quick = &Quick{Trials: 1}
	data, err := SaveSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(data)
	if err != nil {
		t.Fatalf("LoadSpec: %v\nspec:\n%s", err, data)
	}
	if got.Congestion == nil || *got.Congestion != *sc.Congestion {
		t.Errorf("congestion block lost in round trip: %+v", got.Congestion)
	}
	if got.Memory == nil || *got.Memory != *sc.Memory {
		t.Errorf("memory block lost in round trip: %+v", got.Memory)
	}
	if got.Transport == nil || *got.Transport != *sc.Transport {
		t.Errorf("transport block lost in round trip: %+v", got.Transport)
	}
	// Round-tripped scenarios must run identically.
	var a, b bytes.Buffer
	if err := Run(sc, &a, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Run(got, &b, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("round-trip changed the run:\n%q\nvs\n%q", a.String(), b.String())
	}
}

func TestTopologySpecRoundTrip(t *testing.T) {
	sc := valid()
	sc.Congestion = &CongestionSpec{
		Topology: &TopologySpec{Kind: "clos", Tiers: 2, Radix: 4, Oversubscription: 4},
		PFC:      true, XOffKB: 1, XOnKB: 0.5,
	}
	data, err := SaveSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(data)
	if err != nil {
		t.Fatalf("LoadSpec: %v\nspec:\n%s", err, data)
	}
	if got.Congestion == nil || got.Congestion.Topology == nil {
		t.Fatalf("topology block lost in round trip: %+v", got.Congestion)
	}
	if *got.Congestion.Topology != *sc.Congestion.Topology {
		t.Errorf("topology changed in round trip: %+v vs %+v",
			*got.Congestion.Topology, *sc.Congestion.Topology)
	}
	// The round-tripped spec must resolve to the same switch graph.
	want, ok := sc.BuiltTopology()
	if !ok {
		t.Fatal("BuiltTopology reported no declared topology")
	}
	back, _ := got.BuiltTopology()
	if back.SwitchCount() != want.SwitchCount() || back.LinkCount() != want.LinkCount() {
		t.Errorf("rebuilt graph differs: %s vs %s", back.Summary(), want.Summary())
	}
}

func TestTopologySpecLabel(t *testing.T) {
	cases := []struct {
		ts   TopologySpec
		want string
	}{
		{TopologySpec{Kind: "clos", Tiers: 2, Radix: 4}, "clos/2t/r4"},
		{TopologySpec{Kind: "clos"}, "clos/2t/r4"}, // defaults shown, not zeros
		{TopologySpec{Kind: "clos", Tiers: 3, Radix: 8}, "clos/3t/r8"},
		{TopologySpec{Kind: "chain", Switches: 4}, "chain*4"},
		{TopologySpec{Kind: "chain"}, "chain"},
	}
	for _, c := range cases {
		if got := c.ts.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.ts, got, c.want)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name":"x","workload":"fake","trails":3}`, "trails"},
		{"unknown system", `{"name":"x","workload":"fake","trials":1,"system":"Cray"}`, "unknown system"},
		{"unknown workload", `{"name":"x","workload":"warp"}`, "unknown workload"},
		{"malformed grid", `{"name":"x","workload":"fake","trials":1,"grid":{"to_ms":5}}`, "positive step"},
		{"loss out of range", `{"name":"x","workload":"fake","trials":1,"faults":{"loss_rate":1.5}}`, "loss_rate"},
		{"faults congestion", `{"name":"x","workload":"fake","trials":1,"faults":{"congestion":true}}`, "congestion"},
		{"congestion unknown field", `{"name":"x","workload":"fake","trials":1,"congestion":{"buffers_kb":8}}`, "buffers_kb"},
		{"congestion bad thresholds", `{"name":"x","workload":"fake","trials":1,"congestion":{"pfc":true,"xoff_kb":2,"xon_kb":3}}`, "xoff_kb"},
		{"memory unknown field", `{"name":"x","workload":"fake","trials":1,"memory":{"mode":"npr","pool":64}}`, "pool"},
		{"memory unknown mode", `{"name":"x","workload":"fake","trials":1,"memory":{"mode":"rcu"}}`, "memory mode"},
		{"memory stray pool", `{"name":"x","workload":"fake","trials":1,"memory":{"pool_kb":8}}`, "pool_kb"},
		{"transport unknown field", `{"name":"x","workload":"fake","trials":1,"transport":{"mode":"irn","window":4}}`, "window"},
		{"transport unknown mode", `{"name":"x","workload":"fake","trials":1,"transport":{"mode":"quic"}}`, "transport mode"},
		{"topology unknown field", `{"name":"x","workload":"fake","trials":1,"congestion":{"topology":{"kind":"clos","spines":2}}}`, "spines"},
		{"topology unknown kind", `{"name":"x","workload":"fake","trials":1,"congestion":{"topology":{"kind":"mesh"}}}`, "topology kind"},
		{"topology odd radix", `{"name":"x","workload":"fake","trials":1,"congestion":{"topology":{"kind":"clos","radix":5}}}`, "radix"},
		{"trailing data", `{"name":"x","workload":"fake","trials":1} {"again":true}`, "trailing"},
		{"not json", `figure four please`, "spec"},
	}
	for _, c := range cases {
		if _, err := LoadSpec([]byte(c.json)); err == nil {
			t.Errorf("%s: accepted %s", c.name, c.json)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRunValidates(t *testing.T) {
	// Scenario-level validation runs before the workload sees it.
	sc := valid()
	sc.System = "Cray"
	if err := Run(sc, &bytes.Buffer{}, Options{}); err == nil {
		t.Error("Run accepted an unknown system")
	}
	// Workload-level validation (zero trials on an averaging workload).
	sc = valid()
	sc.Trials = 0
	err := Run(sc, &bytes.Buffer{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "zero trials") {
		t.Errorf("Run(zero trials) = %v", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup should fail for unknown names")
	}
}

func TestIsSpecPath(t *testing.T) {
	for arg, want := range map[string]bool{
		"fig4":       false,
		"sweep.json": true,
		"./fig4":     true,
		"dir/spec":   true,
		`dir\spec`:   true,
		"tab13":      false,
	} {
		if got := IsSpecPath(arg); got != want {
			t.Errorf("IsSpecPath(%q) = %v", arg, got)
		}
	}
}
