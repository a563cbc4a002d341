package core

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
	"odpsim/internal/telemetry"
)

// This file adapts the sweep drivers to the declarative scenario layer:
// each figure family becomes a registered scenario.Workload. The adapters
// render with exactly the format strings and seed derivations the
// historical CLI drivers used, so a registered scenario regenerates its
// results/ golden byte-for-byte.

func init() {
	scenario.RegisterWorkload(timeoutSweep{})
	scenario.RegisterWorkload(execSweep{})
	scenario.RegisterWorkload(timeoutProbSweep{})
	scenario.RegisterWorkload(qpSweep{})
	scenario.RegisterWorkload(progressSweep{})
	scenario.RegisterWorkload(benchWorkload{})
	scenario.RegisterWorkload(traceWorkload{})
}

// ODPModeOf maps a scenario's mode string onto ODPMode ("" keeps the
// given default).
func ODPModeOf(mode string, def ODPMode) ODPMode {
	switch mode {
	case "none":
		return NoODP
	case "server":
		return ServerODP
	case "client":
		return ClientODP
	case "both":
		return BothODP
	}
	return def
}

// benchConfig resolves a scenario into a BenchConfig, starting from the
// §V defaults and overriding every field the scenario sets.
func benchConfig(sc *scenario.Scenario) (BenchConfig, error) {
	cfg := DefaultBench()
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return cfg, err
	}
	cfg.System = sys
	cfg.Seed = sc.SeedOrDefault()
	cfg.Mode = ODPModeOf(sc.Mode, BothODP)
	if sc.Size > 0 {
		cfg.Size = sc.Size
	}
	if sc.Ops > 0 {
		cfg.NumOps = sc.Ops
	}
	if sc.QPs > 0 {
		cfg.NumQPs = sc.QPs
	}
	if sc.CACK > 0 {
		cfg.CACK = sc.CACK
	}
	if sc.Retry > 0 {
		cfg.RetryCount = sc.Retry
	}
	cfg.MinRNRDelay = sc.RNRDelay()
	if sc.IntervalMs > 0 {
		cfg.Interval = sc.Interval()
	}
	cfg.DummyPing = sc.DummyPing
	return cfg, nil
}

// timeoutSweep is Figure 2: the wrong-LID timeout probe per C_ACK per
// system, with the theoretical T_tr / 4·T_tr series on top.
type timeoutSweep struct{}

func (timeoutSweep) Kind() string { return "timeout-sweep" }

func (timeoutSweep) Validate(sc *scenario.Scenario) error {
	if sc.Grid == nil || len(sc.Grid.List) == 0 {
		return fmt.Errorf("scenario %q: timeout-sweep needs a grid list of C_ACK values", sc.Name)
	}
	return nil
}

func (timeoutSweep) Run(sc *scenario.Scenario, out *scenario.Output) error {
	systems, err := sc.ResolvedSystems(cluster.All())
	if err != nil {
		return err
	}
	cacks := sc.Grid.List
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	series := SweepTimeouts(systems, cacks, sc.SeedOrDefault())
	theory := &stats.Series{Label: "T_tr (theory)"}
	theory4 := &stats.Series{Label: "4·T_tr (theory)"}
	for _, c := range cacks {
		theory.Add(float64(c), TheoreticalTTr(c).Seconds())
		theory4.Add(float64(c), TheoreticalTo(c).Seconds())
	}
	all := append([]*stats.Series{theory, theory4}, series...)
	fmt.Fprint(out.W, stats.Table("C_ACK", all...))
	return nil
}

// execSweep is Figure 4: mean execution time vs posting interval.
type execSweep struct{}

func (execSweep) Kind() string { return "exec-sweep" }

func (execSweep) Validate(sc *scenario.Scenario) error {
	if err := scenario.RequireTrials(sc); err != nil {
		return err
	}
	return scenario.RequireGrid(sc)
}

func (execSweep) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, err := benchConfig(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	s := SweepExecTime(cfg, sc.Grid.Times(), sc.Trials)
	fmt.Fprint(out.W, stats.Table("interval[ms]", s))
	return nil
}

// timeoutProbSweep is Figures 6 and 7: P(timeout) vs posting interval,
// one series per variant (RNR delays in 6a, operation counts in 7).
type timeoutProbSweep struct{}

func (timeoutProbSweep) Kind() string { return "timeout-prob-sweep" }

func (timeoutProbSweep) Validate(sc *scenario.Scenario) error {
	if err := scenario.RequireTrials(sc); err != nil {
		return err
	}
	if err := scenario.RequireGrid(sc); err != nil {
		return err
	}
	for i, v := range sc.ResolvedVariants() {
		if v.Label == "" {
			return fmt.Errorf("scenario %q: series[%d] needs a label (it names the table column)", sc.Name, i)
		}
	}
	return nil
}

func (timeoutProbSweep) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, err := benchConfig(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	var series []*stats.Series
	for _, v := range sc.ResolvedVariants() {
		b := cfg
		if v.Ops > 0 {
			b.NumOps = v.Ops
		}
		if v.RNRDelayMs > 0 {
			b.MinRNRDelay = sim.FromMillis(v.RNRDelayMs)
		}
		series = append(series, SweepTimeoutProbability(b, v.Grid.Times(), sc.Trials, v.Label))
	}
	if sc.Renderer == "per-series" {
		for _, s := range series {
			fmt.Fprint(out.W, stats.Table("interval[ms]", s))
			fmt.Fprintln(out.W)
		}
		return nil
	}
	fmt.Fprint(out.W, stats.Table("interval[ms]", series...))
	return nil
}

// qpSweep is Figure 9: execution time and wire packets vs QP count for
// all four ODP modes.
type qpSweep struct{}

func (qpSweep) Kind() string { return "qp-sweep" }

func (qpSweep) Validate(sc *scenario.Scenario) error {
	if sc.Grid == nil || len(sc.Grid.List) == 0 {
		return fmt.Errorf("scenario %q: qp-sweep needs a grid list of QP counts", sc.Name)
	}
	return nil
}

func (qpSweep) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, err := benchConfig(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	res := SweepQPs(cfg, sc.Grid.List, []ODPMode{NoODP, ServerODP, ClientODP, BothODP})
	fmt.Fprintln(out.W, "\n(9a) execution time [s]:")
	fmt.Fprint(out.W, stats.Table("#QPs", res.Time[NoODP], res.Time[ServerODP], res.Time[ClientODP], res.Time[BothODP]))
	fmt.Fprintln(out.W, "\n(9b) packets on the wire [thousands]:")
	fmt.Fprint(out.W, stats.Table("#QPs", res.Packets[NoODP], res.Packets[ServerODP], res.Packets[ClientODP], res.Packets[BothODP]))
	return nil
}

// progressSweep is Figure 11: cumulative completions per page over time,
// one run per variant (the figure's 128- and 512-operation panels).
type progressSweep struct{}

func (progressSweep) Kind() string { return "progress" }

func (progressSweep) Validate(sc *scenario.Scenario) error {
	for i, v := range sc.ResolvedVariants() {
		if v.Ops <= 0 {
			return fmt.Errorf("scenario %q: series[%d] needs an operation count", sc.Name, i)
		}
	}
	return nil
}

func (progressSweep) Run(sc *scenario.Scenario, out *scenario.Output) error {
	base, err := benchConfig(sc)
	if err != nil {
		return err
	}
	if out.CounterCSV != "" {
		base.SampleEvery = 10 * sim.Millisecond
	}
	// The variants fan across the worker pool on per-worker reused
	// engines. A result's completion times live until its engine's next
	// trial, so each variant renders its table in the callback; the
	// tables print from their slots, in order, afterwards.
	variants := sc.ResolvedVariants()
	tables := make([]string, len(variants))
	counters := make([]*telemetry.TimeSeries, len(variants))
	engs := parallel.NewEngines()
	parallel.Run(len(variants), func(w, i int) {
		cfg := base
		cfg.Eng = engs.Get(w)
		cfg.NumOps = variants[i].Ops
		r := RunMicrobench(cfg)
		tables[i] = stats.Table("t[ms]", ProgressByPage(r, base.Size, sim.FromMillis(variants[i].StepMs))...)
		counters[i] = r.Telemetry
	})
	for i, v := range variants {
		fmt.Fprintln(out.W, sc.VariantTitle(v))
		if out.CounterCSV != "" {
			writeCounterCSV(out, v.Ops, counters[i])
		}
		fmt.Fprint(out.W, tables[i])
		fmt.Fprintln(out.W)
	}
	return nil
}

// writeCounterCSV writes one progress run's sampled counter series to
// base-<ops>.ext (a scenario's runs would otherwise clobber one file).
func writeCounterCSV(out *scenario.Output, ops int, ts *telemetry.TimeSeries) {
	ext := filepath.Ext(out.CounterCSV)
	path := strings.TrimSuffix(out.CounterCSV, ext) + "-" + strconv.Itoa(ops) + ext
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := ts.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out.W, "(wrote counters to %s)\n", path)
}

// benchWorkload is the Figure-3 micro-benchmark: per-trial lines plus an
// execution-time summary and P(timeout)
// (examples/specs/bench-damming.json).
type benchWorkload struct{}

func (benchWorkload) Kind() string { return "bench" }

func (benchWorkload) Validate(sc *scenario.Scenario) error {
	return scenario.RequireTrials(sc)
}

func (benchWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, err := benchConfig(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out.W, "%s: %d ops × %d B over %d QP(s), interval %v, %s, C_ACK=%d\n\n",
		cfg.System.Name, cfg.NumOps, cfg.Size, cfg.NumQPs, time.Duration(cfg.Interval), cfg.Mode, cfg.CACK)

	// Trials fan across the worker pool (each derives its seed from its
	// index); the per-trial lines print in index order afterwards.
	engs := parallel.NewEngines()
	results := make([]*BenchResult, sc.Trials)
	parallel.Run(sc.Trials, func(w, i int) {
		c := cfg
		c.Eng = engs.Get(w)
		c.Seed = cfg.Seed + int64(i)*7919
		results[i] = RunMicrobench(c)
	})
	var times []float64
	timeouts := 0
	for i, r := range results {
		status := ""
		if r.TimedOut() {
			timeouts++
			status = "  [timeout]"
		}
		if r.Failed {
			status += "  [IBV_WC_RETRY_EXC_ERR]"
		}
		fmt.Fprintf(out.W, "trial %2d: exec=%-12v packets=%-8d retransmissions=%-7d%s\n",
			i+1, r.ExecTime, r.PacketsOnWire, r.Retransmits, status)
		times = append(times, r.ExecTime.Seconds())
	}
	s := stats.Summarize(times)
	fmt.Fprintf(out.W, "\nexec time [s]: %s\n", s)
	fmt.Fprintf(out.W, "P(timeout) = %d/%d = %.0f%%\n", timeouts, sc.Trials, 100*float64(timeouts)/float64(sc.Trials))
	return nil
}

// traceWorkload is one captured micro-benchmark run rendered
// ibdump-style (Figures 1, 5 and 8).
type traceWorkload struct{}

func (traceWorkload) Kind() string { return "trace" }

func (traceWorkload) Validate(sc *scenario.Scenario) error { return nil }

func (traceWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	cfg, err := benchConfig(sc)
	if err != nil {
		return err
	}
	if sc.IntervalMs == 0 {
		cfg.Interval = sim.Millisecond // the Figure-5 posting gap
	}
	cfg.WithCapture = true

	r := RunMicrobench(cfg)
	fmt.Fprintf(out.W, "%d READ(s), %s, interval %v, min RNR NAK delay %v on %s\n\n",
		cfg.NumOps, cfg.Mode, time.Duration(cfg.Interval), time.Duration(cfg.MinRNRDelay), cfg.System.Name)
	r.Cap.RenderFlow(out.W, "node0")
	fmt.Fprintln(out.W)
	fmt.Fprint(out.W, r.Cap.Summary())
	fmt.Fprintf(out.W, "\nexecution time %v, timeouts %d, RNR NAKs %d, PSN-sequence NAKs %d\n",
		r.ExecTime, r.Timeouts, r.RNRNaksSent, r.NakSeqSent)
	if incs := DetectDamming(r.Cap, 100*sim.Millisecond); len(incs) > 0 {
		fmt.Fprintln(out.W, "\npacket damming detected:")
		for _, inc := range incs {
			fmt.Fprintf(out.W, "  %s\n", inc)
		}
	}
	if out.Analyze {
		fmt.Fprintln(out.W)
		fmt.Fprint(out.W, r.Cap.AnalysisReport())
	}
	if out.CaptureCSV != "" {
		if err := writeCapture(out, out.CaptureCSV, r.Cap.WriteCSV); err != nil {
			return err
		}
	}
	if out.CaptureTrace != "" {
		if err := writeCapture(out, out.CaptureTrace, r.Cap.WriteTrace); err != nil {
			return err
		}
	}
	return nil
}

func writeCapture(out *scenario.Output, path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(out.W, "wrote %s\n", path)
	return nil
}
