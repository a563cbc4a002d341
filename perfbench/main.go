// Command perfbench is odpsim's end-to-end and per-layer benchmark. It
// runs one workload — registered scenarios executed back to back through
// the same public calls `odpsim run` makes — on one core, for a fixed
// time, checks every execution's output byte for byte against its
// reference, and prints the measured metrics as one JSON line:
//
//	perfbench --workload qp-flood --seed 1 --seconds 20 --trace 0
//	perfbench compare set-a.jsonl set-b.jsonl > NOISE.md
//
// With --trace 0 it reports the end-to-end metrics (host time, heap
// allocation, peak RSS and set-up time per execution); with --trace 1 it
// runs the workload again under the CPU profiler and allocation sampling
// and charges every sample to the simulator layer it ran in. See README.md
// for the workloads, metrics and noise record.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	simSeed  int64
	root     string // repository root holding results/ and perfbench/
	record   string
}

// setupSamples is how many timed set-up samples a run takes; set-up time
// is their median.
const setupSamples = 9

// traceMemRate is the allocation sampling interval, in bytes, while
// tracing (the runtime default is 512 KiB).
const traceMemRate = 16 << 10

// Runaway ceilings: a run must print its result within 180 s, and a
// registered-size execution needs well under a second of its budget and
// under 100 MiB of heap.
const (
	memCeiling  = 1536 << 20
	execTimeout = 100 * time.Second
	runDeadline = 170 * time.Second
)

func benchMain(args []string) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{root: "."}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: qp-flood, spark-tab13, storm-modes or kv-serve")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: permutes the order of a workload's scenarios within each execution")
	fs.Float64Var(&o.seconds, "seconds", 0, "how long to keep starting executions (required)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.Int64Var(&o.simSeed, "sim-seed", 0, "override every scenario's simulator seed (0 keeps the registered seeds and their goldens; otherwise executions must agree with each other)")
	fs.StringVar(&o.record, "record", "", "append the run, with its cohort and per-execution samples, as one JSON line to FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		log.Print("usage: perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]")
		return 2
	}
	o.trace = trace == 1

	// One core, one sweep worker and one shard lane: the numbers measure
	// the program, not how the host schedules parallel work.
	runtime.GOMAXPROCS(1)
	parallel.SetJobs(1)

	w, err := lookupWorkload(o.workload)
	if err != nil {
		log.Print(err)
		return 2
	}
	r, err := newRunner(w, o)
	if err != nil {
		log.Print(err)
		return 1
	}
	r.dog = &watchdog{
		memCeiling:  memCeiling,
		execTimeout: execTimeout,
		deadline:    start.Add(runDeadline),
		heapBytes:   heapObjectBytes,
		trip: func(reason string) {
			log.Printf("%s: %s; counting the execution as failed", w.name, reason)
			r.emit(reason)
			os.Exit(0)
		},
	}
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		r.dog.watch(stop, 50*time.Millisecond)
	}()
	err = r.run()
	close(stop)
	<-watched
	if err != nil {
		log.Print(err)
		return 1
	}
	r.emit("")
	return 0
}

// runner holds one run's prepared scenarios and measurements.
type runner struct {
	w        *workload
	opt      options
	scs      []scenario.Scenario
	specs    [][]byte // each scenario as a JSON spec, loaded again per set-up
	refs     [][]byte // nil until the first execution when no reference exists
	refNames []string
	outs     []*bytes.Buffer
	order    *rand.Rand
	dog      *watchdog
	cohort   cohort
	// lastProbe is the kernel time after the previous piece of timed
	// work, 0 before the first.
	lastProbe time.Duration

	mu         sync.Mutex
	attempted  int
	failed     int
	wall       []float64 // host seconds per execution
	wallNorm   []float64 // the same at the probe's reference speed
	traced     []bool    // whether each execution ran under the tracer
	probes     []float64 // probe seconds around each execution
	allocMB    []float64
	allocsK    []float64
	gcs        []float64
	setupLoad  []float64 // host seconds per set-up
	setupBuild []float64
	setupNorm  []float64          // whole set-ups at the reference speed
	layer      map[string]float64 // per-layer metrics of a traced run
	emitted    bool
}

func newRunner(w *workload, o options) (*runner, error) {
	r := &runner{w: w, opt: o, order: rand.New(rand.NewSource(o.seed)), layer: map[string]float64{}}
	for _, name := range w.scenarios {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		if w.resize != nil {
			w.resize(&sc)
		}
		if o.simSeed != 0 {
			sc.Seed = o.simSeed
		}
		spec, err := scenario.SaveSpec(sc)
		if err != nil {
			return nil, err
		}
		if sc, err = scenario.LoadSpec(spec); err != nil {
			return nil, err
		}
		var ref []byte
		refName := "the run's first execution"
		if o.simSeed == 0 {
			refName = filepath.Join("results", name+".txt")
			if p, ok := w.refs[name]; ok {
				refName = p
			}
			if ref, err = os.ReadFile(filepath.Join(o.root, refName)); err != nil {
				return nil, fmt.Errorf("reference for %s: %w", name, err)
			}
		}
		r.scs = append(r.scs, sc)
		r.specs = append(r.specs, spec)
		r.refs = append(r.refs, ref)
		r.refNames = append(r.refNames, refName)
		r.outs = append(r.outs, bytes.NewBuffer(make([]byte, 0, len(ref)+4096)))
	}
	r.cohort = currentCohort(o.root)
	return r, nil
}

func (r *runner) run() error {
	if !r.opt.trace {
		return r.runFor(r.opt.seconds, nil, setupSamples)
	}
	// Traced run: executions alternate between untraced ones, for the
	// reference host time, and traced ones for attribution, so the two see
	// the same host conditions; then the re-drive and shard extras.
	tr := newTracer()
	if err := r.runFor(r.opt.seconds, tr, setupSamples); err != nil {
		return err
	}
	if tr.err != nil {
		return tr.err
	}
	r.mu.Lock()
	var wall, wallNorm, tracedNorm, allocMB, gcs []float64
	for i, traced := range r.traced {
		if traced {
			tracedNorm = append(tracedNorm, r.wallNorm[i])
			continue
		}
		wall = append(wall, r.wall[i])
		wallNorm = append(wallNorm, r.wallNorm[i])
		allocMB = append(allocMB, r.allocMB[i])
		gcs = append(gcs, r.gcs[i])
	}
	for _, b := range buckets {
		r.layer[b+".cpu_share"] = tr.cpu.share(b)
		r.layer[b+".alloc_mb"] = tr.alloc.share(b) * median(allocMB)
	}
	r.layer["unattributed.cpu_share"] = tr.cpu.share("other") + tr.cpu.share("runtime")
	r.layer["scenario.load_s"] = median(r.setupLoad)
	r.layer["cluster.build_s"] = median(r.setupBuild)
	r.layer["core.simulate_s"] = median(wall)
	r.layer["runtime.gc_cycles"] = median(gcs)
	untraced := median(wallNorm)
	r.layer["trace_overhead"] = median(tracedNorm) - untraced
	r.mu.Unlock()
	if r.w.redrive != nil {
		r.redrive()
	}
	if r.w.name == "kv-serve" {
		r.shardedSpeedup(untraced)
	}
	return nil
}

// setupSample times one batch of set-ups: spec load and validation, then
// cold builds of the simulated systems.
func (r *runner) setupSample() error {
	runtime.GC()
	start := time.Now()
	for i := 0; i < r.w.setupBatch; i++ {
		for _, spec := range r.specs {
			sc, err := scenario.LoadSpec(spec)
			if err != nil {
				return err
			}
			wl, err := scenario.LookupWorkload(sc.Workload)
			if err != nil {
				return err
			}
			if err := wl.Validate(&sc); err != nil {
				return err
			}
		}
	}
	mid := time.Now()
	for i := 0; i < r.w.setupBatch; i++ {
		if err := r.w.build(r.scs); err != nil {
			return err
		}
	}
	end := time.Now()
	p := r.probeAfter()
	n := float64(r.w.setupBatch)
	r.mu.Lock()
	r.setupLoad = append(r.setupLoad, mid.Sub(start).Seconds()/n)
	r.setupBuild = append(r.setupBuild, end.Sub(mid).Seconds()/n)
	r.setupNorm = append(r.setupNorm, normalize(end.Sub(start).Seconds()/n, p))
	r.mu.Unlock()
	return nil
}

// runFor starts executions back to back until seconds have passed, and
// always runs at least one. Given a tracer, every second execution runs
// under it. It spreads the given number of set-up samples evenly over the
// same time, so set-up time, like execution time, is sampled across the
// host's busy and quiet periods rather than in one burst.
func (r *runner) runFor(seconds float64, tr *tracer, setups int) error {
	start := time.Now()
	taken := 0
	for {
		elapsed := time.Since(start).Seconds()
		if taken < setups && float64(taken) <= elapsed/seconds*float64(setups) {
			if err := r.setupSample(); err != nil {
				return fmt.Errorf("%s set-up: %w", r.w.name, err)
			}
			taken++
		}
		if len(r.wall)%2 == 1 {
			r.execute(tr)
		} else {
			r.execute(nil)
		}
		// A traced run needs an execution of each kind.
		if time.Since(start).Seconds() >= seconds && (tr == nil || len(r.wall) >= 2) {
			break
		}
	}
	for ; taken < setups; taken++ {
		if err := r.setupSample(); err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
	}
	return nil
}

// execute runs the workload's scenarios once from a collected heap, times
// them, and checks each output against its reference.
func (r *runner) execute(tr *tracer) {
	order := make([]int, len(r.scs))
	for i := range order {
		order[i] = i
	}
	r.order.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	errs := make([]error, len(r.scs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.start()
	}
	r.dog.begin()
	start := time.Now()
	for _, i := range order {
		r.outs[i].Reset()
		errs[i] = runScenario(r.scs[i], r.outs[i])
	}
	elapsed := time.Since(start)
	r.dog.end()
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.stop()
	}
	p := r.probeAfter()
	ok := true
	for i := range r.scs {
		if err := r.check(i, errs[i]); err != nil {
			log.Printf("%s: execution %d: %v", r.w.name, r.attempted+1, err)
			ok = false
		}
	}
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.wall = append(r.wall, elapsed.Seconds())
	r.wallNorm = append(r.wallNorm, normalize(elapsed.Seconds(), p))
	r.traced = append(r.traced, tr != nil)
	r.probes = append(r.probes, p.Seconds())
	r.allocMB = append(r.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	r.allocsK = append(r.allocsK, float64(m1.Mallocs-m0.Mallocs)/1e3)
	r.gcs = append(r.gcs, float64(m1.NumGC-m0.NumGC))
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s execution %d: %.4f s, probe %.2f ms\n", r.w.name, len(r.wall), elapsed.Seconds(), 1e3*p.Seconds())
}

// probeAfter times the calibration kernel right after a piece of timed
// work and returns the host speed around that work: the mean of this
// probe and the one after the previous piece, which ran just before it.
func (r *runner) probeAfter() time.Duration {
	p := probe()
	before := r.lastProbe
	r.lastProbe = p
	if before == 0 {
		return p
	}
	return (before + p) / 2
}

// runScenario executes one scenario, turning a panic into an error so it
// counts as a failed operation.
func runScenario(sc scenario.Scenario, w *bytes.Buffer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", sc.Name, p)
		}
	}()
	return scenario.Run(sc, w, scenario.Options{})
}

// check compares scenario i's output with its reference; without one, the
// first output becomes the reference every later execution must match.
func (r *runner) check(i int, runErr error) error {
	if runErr != nil {
		return runErr
	}
	out := r.outs[i].Bytes()
	if r.refs[i] == nil {
		r.refs[i] = append([]byte(nil), out...)
		return nil
	}
	return diff(r.scs[i].Name, out, r.refs[i], r.refNames[i])
}

// diff reports the first line where got departs from want.
func diff(name string, got, want []byte, wantName string) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Errorf("%s output differs from %s at line %d:\n  got  %q\n  want %q", name, wantName, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s output differs from %s", name, wantName)
}

// redrive replays the workload's simulations on the harness's own engine
// for event and work counts; a disagreement with the printed tables is a
// failed operation.
func (r *runner) redrive() {
	var wc workCounts
	err := r.w.redrive(r.scs, r.refs, &wc)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		log.Printf("%s: re-drive: %v", r.w.name, err)
		r.failed++
		return
	}
	r.layer["sim.events"] = float64(wc.events)
	if wc.events > 0 {
		r.layer["sim.ns_per_event"] = float64(wc.elapsed.Nanoseconds()) / float64(wc.events)
	}
	r.layer["rnic.retransmits"] = float64(wc.retrans)
	r.layer["rnic.packets_on_wire"] = float64(wc.packets)
	r.layer["rnic.timeouts"] = float64(wc.timeouts)
	r.layer["congestion.switch_drops"] = wc.drops
	r.layer["congestion.pause_us"] = wc.pauseUs
	r.layer["irn.sacks"] = wc.sacks
	r.layer["odp.faults"] = wc.faults
	fmt.Fprintf(os.Stderr, "perfbench: %s re-drive: %d simulations, %d events, %.3f s\n",
		r.w.name, wc.points, wc.events, wc.elapsed.Seconds())
}

// shardedSpeedup runs the scenario once on one lane per CPU with as many
// Ps, checks its bytes, and reports the one-lane time over that time, both
// at the probe's reference speed. It is reported, not gated.
func (r *runner) shardedSpeedup(oneLane float64) {
	lanes := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(lanes)
	sc := r.scs[0]
	sc.Shards = lanes
	var out bytes.Buffer
	runtime.GC()
	r.dog.begin()
	start := time.Now()
	err := runScenario(sc, &out)
	elapsed := time.Since(start).Seconds()
	r.dog.end()
	runtime.GOMAXPROCS(prev)
	elapsed = normalize(elapsed, r.probeAfter())
	if err == nil {
		err = diff(sc.Name, out.Bytes(), r.refs[0], r.refNames[0])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		log.Printf("%s: %d lanes: %v", r.w.name, lanes, err)
		r.failed++
		return
	}
	r.layer["shard.lanes"] = float64(lanes)
	r.layer["shard.speedup"] = oneLane / elapsed
	fmt.Fprintf(os.Stderr, "perfbench: %s on %d lanes at GOMAXPROCS=%d: %.4f s (one lane %.4f s)\n",
		r.w.name, lanes, lanes, elapsed, oneLane)
}

// tracer profiles executions: CPU samples from the runtime profiler and
// allocation samples from the heap profile, both charged to layers.
type tracer struct {
	cpu, alloc attribution
	buf        bytes.Buffer
	heap       heapProfile
	snap, next map[memKey]runtime.MemProfileRecord
	err        error
}

func newTracer() *tracer {
	return &tracer{cpu: attribution{}, alloc: attribution{}, snap: map[memKey]runtime.MemProfileRecord{}, next: map[memKey]runtime.MemProfileRecord{}}
}

// start is called right after the execution's collection, so the heap
// profile snapshot covers everything allocated before it. Allocation
// sampling runs at traceMemRate only until stop.
func (t *tracer) start() {
	runtime.MemProfileRate = traceMemRate
	t.heap.read(t.snap)
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil && t.err == nil {
		t.err = fmt.Errorf("cpu profile: %w", err)
	}
}

func (t *tracer) stop() {
	pprof.StopCPUProfile()
	if err := t.cpu.addCPUProfile(t.buf.Bytes()); err != nil && t.err == nil {
		t.err = err
	}
	runtime.GC()
	t.heap.read(t.next)
	t.alloc.addAllocDelta(t.snap, t.next, traceMemRate)
	runtime.MemProfileRate = 512 << 10
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "thousands"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics: each bucket's CPU share and
// allocated megabytes, then counts, spans and the tracing overhead.
func perLayer() []metricDef {
	var out []metricDef
	for _, b := range buckets {
		out = append(out, metricDef{b + ".cpu_share", "share"})
	}
	for _, b := range buckets {
		out = append(out, metricDef{b + ".alloc_mb", "MB"})
	}
	return append(out,
		metricDef{"unattributed.cpu_share", "share"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"rnic.retransmits", "count"},
		metricDef{"rnic.packets_on_wire", "count"},
		metricDef{"rnic.timeouts", "count"},
		metricDef{"congestion.switch_drops", "count"},
		metricDef{"congestion.pause_us", "us"},
		metricDef{"irn.sacks", "count"},
		metricDef{"odp.faults", "count"},
		metricDef{"scenario.load_s", "s"},
		metricDef{"cluster.build_s", "s"},
		metricDef{"core.simulate_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"trace_overhead", "s"},
		metricDef{"shard.lanes", "count"},
		metricDef{"shard.speedup", "x"},
	)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// emit prints the run's summary and its result line, once. A non-empty
// runaway reason counts the execution in flight as attempted and failed.
func (r *runner) emit(runaway string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.emitted {
		return
	}
	r.emitted = true
	if runaway != "" {
		r.attempted++
		r.failed++
	}
	values := map[string]float64{}
	defs := perLayer()
	if r.opt.trace {
		values = r.layer
	} else {
		defs = endToEnd
		values["wall_s"] = median(r.wallNorm)
		values["alloc_mb"] = median(r.allocMB)
		values["allocs_k"] = median(r.allocsK)
		values["peak_rss_mb"] = peakRSSMB()
		values["setup_s"] = median(r.setupNorm)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	fmt.Printf("workload %s  seed %d  trace %v  executions %d  attempted %d  failed %d\n",
		r.w.name, r.opt.seed, r.opt.trace, len(r.wall), r.attempted, r.failed)
	if len(r.wall) > 0 {
		lo, _ := minMax(r.wall)
		q1, q2, q3 := quartiles(r.wall)
		fmt.Printf("host seconds per execution: fastest %.4f  q1 %.4f  median %.4f  q3 %.4f  n %d\n", lo, q1, q2, q3, len(r.wall))
		q1, q2, q3 = quartiles(r.probes)
		fmt.Printf("probe ms around executions: q1 %.3f  median %.3f  q3 %.3f  (reference %.3f)\n", 1e3*q1, 1e3*q2, 1e3*q3, 1e3*probeRef.Seconds())
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	cj, _ := json.Marshal(r.cohort)
	fmt.Printf("cohort %s\n", cj)
	line, err := json.Marshal(res)
	if err != nil {
		log.Printf("encoding result: %v", err)
		return
	}
	if r.opt.record != "" {
		r.appendRecord(res)
	}
	fmt.Println(string(line))
}

func (r *runner) appendRecord(res result) {
	rec := record{
		Cohort: r.cohort, Workload: r.w.name, Seed: r.opt.seed, Seconds: r.opt.seconds, Trace: r.opt.trace,
		Samples: map[string][]float64{
			"host_s": r.wall, "wall_s": r.wallNorm, "probe_s": r.probes,
			"alloc_mb": r.allocMB, "allocs_k": r.allocsK, "setup_s": r.setupNorm,
		},
		Result: res,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		log.Printf("encoding record: %v", err)
		return
	}
	f, err := os.OpenFile(r.opt.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		log.Printf("record: %v", err)
		return
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		log.Printf("record: %v", werr)
	}
}

func compareMain(args []string) int {
	if len(args) != 2 {
		log.Print("usage: perfbench compare SET_A.jsonl SET_B.jsonl")
		return 2
	}
	spec, err := readBenchSpec("BENCHMARK.json")
	if err != nil {
		log.Print(err)
		return 1
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(args[i]); err != nil {
			log.Print(err)
			return 1
		}
	}
	if err := compare(os.Stdout, spec, sets[0], sets[1]); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}
