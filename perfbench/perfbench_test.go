package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfInnermostInternalFrameWins(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// A map lookup inside RNIC.receive is rnic time.
		{[]string{"runtime.mapaccess2_fast32", "odpsim/internal/rnic.(*RNIC).receive", "odpsim/internal/fabric.(*Fabric).deliver", "odpsim/internal/sim.(*Engine).Run"}, "rnic"},
		// mallocgc is charged to its caller's layer.
		{[]string{"runtime.mallocgc", "runtime.newobject", "odpsim/internal/telemetry.(*Registry).add", "odpsim/internal/rnic.New"}, "telemetry"},
		// Nested packages go to their top-level layer.
		{[]string{"odpsim/internal/apps/sparkucx.RunWave", "odpsim/internal/scenario.Run"}, "apps"},
		{[]string{"odpsim/internal/scenario/paper.init"}, "scenario"},
		// Closures and generic instantiations keep their package.
		{[]string{"odpsim/internal/core.kvServeWorkload.Run.func2", "odpsim/internal/sim.(*Proc).run"}, "core"},
		{[]string{"odpsim/internal/sim.(*heap[...]).up", "odpsim/internal/sim.(*Engine).Schedule"}, "sim"},
		// Internal packages outside the named layers are "other".
		{[]string{"odpsim/internal/ucx.(*Endpoint).GetAsync", "odpsim/internal/apps/sparkucx.RunWave"}, "other"},
		// Runtime-only stacks (GC workers, the harness) are runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.GC", "main.(*runner).execute", "main.main"}, "runtime"},
		{nil, "runtime"},
		// The profiler's own work is not charged at all.
		{[]string{"compress/flate.NewWriter", "runtime/pprof.(*profileBuilder).build", "runtime/pprof.profileWriter"}, ""},
		// A look-alike module path is not simulator code.
		{[]string{"odpsim/internalx/rnic.f", "example.com/odpsim/internal/rnic.f"}, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	a := attribution{}
	a.add(cases[0].stack, 3)
	a.add(cases[7].stack, 1)
	a.add(cases[10].stack, 100)
	if got := a.share("rnic"); got != 0.75 {
		t.Errorf("rnic share = %v, want 0.75 (profiler stacks excluded)", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([...], n=4) values.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 9, 4, 6, 1}, 1.5, 4, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := cohort{GOMAXPROCS: 1, NProc: 2, GoVersion: "go1.24.0", CPUModel: "cpu", Commit: "a", Source: "s"}
	rec := func(c cohort, wall float64) record {
		return record{Cohort: c, Workload: "qp-flood", Result: result{Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}}}
	}
	var buf bytes.Buffer
	if err := compare(&buf, spec, []record{rec(c, 1)}, []record{rec(c, 1.1)}); err != nil {
		t.Fatalf("same cohort refused: %v", err)
	}
	if !strings.Contains(buf.String(), "A/A") || !strings.Contains(buf.String(), "+0.1000") {
		t.Errorf("A/A comparison should report a +0.1 drift:\n%s", buf.String())
	}
	other := c
	other.Commit = "b"
	buf.Reset()
	if err := compare(&buf, spec, []record{rec(c, 1)}, []record{rec(other, 1)}); err != nil || !strings.Contains(buf.String(), "A/B") {
		t.Errorf("a different commit is a valid A/B comparison: err %v\n%s", err, buf.String())
	}
	for _, mutate := range []func(*cohort){
		func(c *cohort) { c.GOMAXPROCS = 2 },
		func(c *cohort) { c.NProc = 4 },
		func(c *cohort) { c.GoVersion = "go1.22.0" },
		func(c *cohort) { c.CPUModel = "other cpu" },
	} {
		mixed := c
		mutate(&mixed)
		err := compare(&buf, spec, []record{rec(c, 1), rec(mixed, 1)}, []record{rec(c, 1)})
		if err == nil || !strings.Contains(err.Error(), "mixed cohorts") {
			t.Errorf("cohort %+v vs %+v: err = %v, want a mixed-cohort refusal", c, mixed, err)
		}
	}
}

// TestReferenceCheckCatchesOneByte runs a real scenario against its
// golden, then against a copy with one byte changed.
func TestReferenceCheckCatchesOneByte(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "results", "irn-damming.txt"))
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: "test", scenarios: []string{"irn-damming"}, build: buildIRNCells, setupBatch: 1}
	for _, perturb := range []bool{false, true} {
		root := t.TempDir()
		ref := append([]byte(nil), golden...)
		if perturb {
			i := bytes.LastIndexByte(ref, '1')
			ref[i] = '2'
		}
		if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "results", "irn-damming.txt"), ref, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(w, options{seed: 1, root: root})
		if err != nil {
			t.Fatal(err)
		}
		r.dog = &watchdog{}
		r.execute(nil)
		want := 0
		if perturb {
			want = 1
		}
		if r.attempted != 1 || r.failed != want {
			t.Errorf("perturbed=%v: attempted %d failed %d, want 1 and %d", perturb, r.attempted, r.failed, want)
		}
	}
}

func TestSimSeedRunsAgreeWithEachOther(t *testing.T) {
	w := &workload{name: "test", scenarios: []string{"irn-damming"}, build: buildIRNCells, setupBatch: 1}
	r, err := newRunner(w, options{seed: 1, simSeed: 7, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	r.dog = &watchdog{}
	r.execute(nil)
	r.execute(nil)
	if r.failed != 0 || r.refs[0] == nil {
		t.Fatalf("failed %d with first-execution reference %d bytes", r.failed, len(r.refs[0]))
	}
	golden, _ := os.ReadFile(filepath.Join("..", "results", "irn-damming.txt"))
	if bytes.Equal(r.refs[0], golden) {
		t.Error("seed 7 reproduced the seed-1 golden; the override did not reach the simulator")
	}
	r.refs[0][len(r.refs[0])-2] ^= 1
	r.execute(nil)
	if r.failed != 1 {
		t.Errorf("a disagreeing execution was not counted as failed")
	}
}

func TestWatchdogTrips(t *testing.T) {
	tripped := make(chan string, 1)
	mk := func(heap uint64) *watchdog {
		return &watchdog{
			memCeiling:  100,
			execTimeout: 20 * time.Millisecond,
			deadline:    time.Now().Add(time.Hour),
			heapBytes:   func() uint64 { return heap },
			trip:        func(reason string) { tripped <- reason },
		}
	}
	if w := mk(101); !w.check(time.Now()) || !strings.Contains(<-tripped, "heap") {
		t.Error("heap above the ceiling did not trip")
	}
	w := mk(50)
	if w.check(time.Now()) {
		t.Fatal("tripped with nothing exceeded")
	}
	w.begin()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.watch(stop, time.Millisecond)
	}()
	select {
	case reason := <-tripped:
		if !strings.Contains(reason, "longer than") {
			t.Errorf("reason %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Error("a long execution did not trip the time ceiling")
	}
	close(stop)
	<-done
	if !w.check(time.Now().Add(time.Hour)) || len(tripped) != 0 {
		t.Error("a tripped watchdog must stay tripped and fire once")
	}
}

var allocSink [][]byte

func allocateForProfile() {
	for i := 0; i < 64; i++ {
		allocSink = append(allocSink, make([]byte, 4096))
	}
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleTypes) < 2 || p.sampleTypes[0] != "alloc_objects" {
		t.Fatalf("sample types %v", p.sampleTypes)
	}
	found := false
	for _, s := range p.samples {
		st := p.stack(s)
		for _, fn := range st {
			if strings.HasSuffix(fn, ".allocateForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Error("the allocating function is missing from every parsed stack")
	}

	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	a := attribution{}
	if err := a.addCPUProfile(cpu.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.total() <= 0 || a.share("runtime") != 1 {
		t.Errorf("a harness-only spin loop should be all runtime time: %v (x=%d)", a, x)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, harness reports %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	pl := perLayer()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(pl))
	}
	for i, m := range spec.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, harness reports %s/%s", i, m.Name, m.Unit, pl[i].name, pl[i].unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d = %s, harness %s", i, wl.Name, workloads[i].name)
		}
	}
}

func TestRedriveCrossChecksPrintedRows(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "results", "irn-damming.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(&workload{name: "test", scenarios: []string{"irn-damming"}}, options{seed: 1, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	var wc workCounts
	if err := redriveIRNCompare(r.scs, [][]byte{golden}, &wc); err != nil {
		t.Fatalf("re-drive disagrees with the golden: %v", err)
	}
	if wc.points != 12 || wc.events == 0 {
		t.Errorf("re-drove %d cells with %d events, want 12 cells", wc.points, wc.events)
	}
	// The damming row's retransmit count, one higher.
	bad := bytes.Replace(golden, []byte("561.906446ms       73"), []byte("561.906446ms       74"), 1)
	if bytes.Equal(bad, golden) {
		t.Fatal("perturbation did not apply")
	}
	if err := redriveIRNCompare(r.scs, [][]byte{bad}, &workCounts{}); err == nil {
		t.Error("a changed retransmit count went unnoticed")
	}
}
