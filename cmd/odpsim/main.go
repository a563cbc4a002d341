// Command odpsim is the single entry point to the declarative scenario
// layer: every figure and table of the evaluation is a registered
// scenario, and user-defined experiments run from JSON specs without
// writing Go.
//
//	odpsim list                    # registered scenarios (the source of truth)
//	odpsim run fig4                # regenerate Figure 4 to stdout
//	odpsim run fig4 fig7 -o results/   # write results/fig4.txt, results/fig7.txt
//	odpsim run --all -o results/   # regenerate everything (-short skips slow ones)
//	odpsim run sweep.json          # run a user spec end to end
//	odpsim show fig4 > my.json     # export a registry entry as an editable spec
//
// Run flags: -j N parallel workers (output is identical for any value),
// -quick reduced-fidelity profiles, -seed, -trials, -waves and -memory
// overrides (applied after -quick, so they win over the profile),
// plus the side outputs -counters (progress scenarios), -analyze, -csv
// and -trace (trace scenarios).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("odpsim: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		run(os.Args[2:])
	case "show":
		show(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown command %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  odpsim list                           registered scenarios
  odpsim run <name|spec.json>... [flags]  run scenarios or JSON specs
  odpsim run --all [flags]              run every registered scenario
  odpsim show <name>                    print a scenario as a JSON spec

run flags:
  -o DIR      write each result to DIR/<name>.txt instead of stdout
  -j N        parallel workers (0 = GOMAXPROCS); output identical for any N
  -quick      reduced-fidelity profiles (smaller grids, fewer trials);
              the overrides below still apply on top
  -short      with --all: skip scenarios marked slow
  -seed N     override the base seed
  -trials N   override the trial count
  -waves N    override the sampled shuffle waves (sparkucx)
  -memory M   override the memory mode: pin, odp or npr
  -transport T  override the transport mode: rc or irn
  -shards N   worker lanes for sharded workloads (0 auto-tunes from
              GOMAXPROCS; output identical for any N)
  -counters F write sampled device counters as CSV (progress scenarios)
  -analyze    append per-operation analysis (trace scenarios)
  -csv F      write the packet capture as CSV (trace scenarios)
  -trace F    write the packet capture as binary trace (trace scenarios)
  -cpuprofile F  write a pprof CPU profile of the run to FILE
  -memprofile F  write a pprof heap profile at exit to FILE
`)
}

func list() {
	fmt.Printf("%-14s %-20s %-12s %-9s %-6s %s\n", "NAME", "WORKLOAD", "TOPOLOGY", "TRANSPORT", "SHARDS", "TITLE")
	for _, name := range scenario.Names() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		slow := ""
		if sc.Slow {
			slow = "  [slow]"
		}
		topo := "-"
		if sc.Congestion != nil && sc.Congestion.Topology != nil {
			topo = sc.Congestion.Topology.Label()
		}
		// The shards column reports the scenario's default lane count; any
		// value reproduces the same bytes, so this is a throughput hint,
		// not part of the result's identity.
		shards := "-"
		if sc.Shards > 0 {
			shards = fmt.Sprintf("%d", sc.Shards)
		}
		// The transport column shows a declared override; "-" means the
		// default go-back-N RC machine (or, for comparison workloads, a
		// sweep over both transports).
		transport := "-"
		if sc.Transport != nil && sc.Transport.Mode != "" {
			transport = sc.Transport.Mode
		}
		fmt.Printf("%-14s %-20s %-12s %-9s %-6s %s%s\n", sc.Name, sc.Workload, topo, transport, shards, sc.ExpandedTitle(), slow)
	}
	fmt.Printf("\nworkload kinds for JSON specs: %v\n", scenario.Workloads())
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	all := fs.Bool("all", false, "run every registered scenario in paper order")
	outDir := fs.String("o", "", "write each result to DIR/<name>.txt instead of stdout")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS); output is identical for any value")
	quick := fs.Bool("quick", false, "apply the reduced-fidelity quick profiles")
	short := fs.Bool("short", false, "with --all: skip scenarios marked slow")
	seed := fs.Int64("seed", 0, "override the base seed (0 keeps the scenario's)")
	trials := fs.Int("trials", 0, "override the trial count (0 keeps the scenario's)")
	waves := fs.Int("waves", 0, "override the sampled shuffle waves (0 keeps the scenario's)")
	memory := fs.String("memory", "", "override the memory mode: pin, odp or npr (empty keeps the scenario's)")
	transport := fs.String("transport", "", "override the transport mode: rc or irn (empty keeps the scenario's)")
	shards := fs.Int("shards", 0, "worker lanes for sharded workloads (0 keeps the scenario's, which auto-tunes from GOMAXPROCS; output is identical for any value)")
	counters := fs.String("counters", "", "write sampled device counters as CSV to FILE (progress scenarios)")
	analyze := fs.Bool("analyze", false, "append per-operation analysis (trace scenarios)")
	csvOut := fs.String("csv", "", "write the packet capture as CSV to FILE (trace scenarios)")
	traceOut := fs.String("trace", "", "write the packet capture as binary trace to FILE (trace scenarios)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	if err := fs.Parse(reorder(fs, args)); err != nil {
		os.Exit(2)
	}
	// Zero means "keep the default"; a negative count is a usage error,
	// not a request for the default.
	for _, c := range []struct {
		flag string
		v    int
	}{{"-j", *jobs}, {"-trials", *trials}, {"-waves", *waves}, {"-shards", *shards}} {
		if c.v < 0 {
			log.Printf("%s must not be negative, got %d", c.flag, c.v)
			os.Exit(2)
		}
	}
	parallel.SetJobs(*jobs)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	var scs []scenario.Scenario
	switch {
	case *all:
		if fs.NArg() > 0 {
			log.Fatal("--all takes no scenario arguments")
		}
		for _, name := range scenario.Names() {
			sc, err := scenario.Lookup(name)
			if err != nil {
				log.Fatal(err)
			}
			if *short && sc.Slow {
				continue
			}
			scs = append(scs, sc)
		}
	case fs.NArg() == 0:
		log.Fatal("run needs scenario names or spec files (see `odpsim list`)")
	default:
		for _, arg := range fs.Args() {
			sc, err := load(arg)
			if err != nil {
				log.Fatal(err)
			}
			scs = append(scs, sc)
		}
	}

	// Apply the overrides to every scenario and validate them all before
	// the first one runs, so a bad -memory or -transport value fails
	// before any output is written.
	for i := range scs {
		sc := &scs[i]
		if *quick {
			// Fold the quick profile in before the overrides, so an
			// explicit -trials or -waves wins over the profile's counts.
			*sc = sc.ApplyQuick()
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		if *trials > 0 {
			sc.Trials = *trials
		}
		if *waves > 0 {
			sc.Waves = *waves
		}
		if *shards > 0 {
			sc.Shards = *shards
		}
		if *memory != "" {
			mem := scenario.MemorySpec{Mode: *memory}
			if sc.Memory != nil {
				mem = *sc.Memory
				mem.Mode = *memory
			}
			if mem.Mode != "npr" {
				mem.PoolKB = 0 // pool sizing is an npr-only knob
			}
			sc.Memory = &mem
		}
		if *transport != "" {
			sc.Transport = &scenario.TransportSpec{Mode: *transport}
		}
		if err := sc.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	opts := scenario.Options{
		CounterCSV:   *counters,
		CaptureCSV:   *csvOut,
		CaptureTrace: *traceOut,
		Analyze:      *analyze,
	}
	for i, sc := range scs {
		if err := execute(sc, *outDir, len(scs) > 1 && i > 0, opts); err != nil {
			log.Fatal(err)
		}
	}
}

// reorder moves flags in front of positional arguments so
// `odpsim run fig4 -o results/` works — the standard flag package stops
// parsing at the first non-flag argument otherwise.
func reorder(fs *flag.FlagSet, args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if len(a) < 2 || a[0] != '-' {
			pos = append(pos, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if strings.Contains(name, "=") {
			continue
		}
		f := fs.Lookup(name)
		if f == nil {
			continue
		}
		// Non-boolean flags consume the next argument as their value.
		if bv, ok := f.Value.(interface{ IsBoolFlag() bool }); (!ok || !bv.IsBoolFlag()) && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return append(flags, pos...)
}

// load resolves a run argument: a registry name, or a JSON spec path.
func load(arg string) (scenario.Scenario, error) {
	if scenario.IsSpecPath(arg) {
		return scenario.LoadSpecFile(arg)
	}
	return scenario.Lookup(arg)
}

func execute(sc scenario.Scenario, outDir string, separator bool, opts scenario.Options) error {
	var w io.Writer = os.Stdout
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, sc.Name+".txt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Fprintf(os.Stderr, "running %s -> %s\n", sc.Name, path)
	} else if separator {
		fmt.Println()
	}
	return scenario.Run(sc, w, opts)
}

func show(args []string) {
	if len(args) != 1 {
		log.Fatal("show needs exactly one scenario name")
	}
	sc, err := scenario.Lookup(args[0])
	if err != nil {
		log.Fatal(err)
	}
	data, err := scenario.SaveSpec(sc)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	// Summaries go to stderr so stdout stays a valid, round-trippable
	// JSON spec (`odpsim show fig4 > my.json`).
	effective := "rc (go-back-N)"
	if sc.Transport != nil && sc.Transport.Mode == "irn" {
		effective = "irn (selective repeat)"
	} else if sc.Workload == "irn-compare" {
		effective = "rc|irn sweep"
	}
	fmt.Fprintf(os.Stderr, "\ntransport %s\n", effective)
	if topo, ok := sc.BuiltTopology(); ok {
		fmt.Fprintf(os.Stderr, "\ntopology  %s\n", topo.Summary())
		fmt.Fprintf(os.Stderr, "          tiers:")
		for i, name := range topo.TierNames {
			count := 0
			for _, t := range topo.TierOf {
				if t == i {
					count++
				}
			}
			fmt.Fprintf(os.Stderr, " %s=%d", name, count)
		}
		fmt.Fprintln(os.Stderr)
	}
}
