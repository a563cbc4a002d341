package scenario

import (
	"fmt"
	"io"

	"odpsim/internal/cluster"
)

// Output is where a workload renders: the main writer plus the optional
// side outputs `odpsim run` exposes (counter CSV for the Figure-11
// flood, capture CSV/binary trace and the per-operation analysis report
// for trace scenarios).
type Output struct {
	W io.Writer
	// CounterCSV, when non-empty, makes counter-sampling workloads also
	// write each run's sampled device counters as CSV to this path
	// (suffixed per run when one scenario holds several runs).
	CounterCSV string
	// CaptureCSV/CaptureTrace write the packet capture of trace
	// workloads to these paths.
	CaptureCSV   string
	CaptureTrace string
	// Analyze appends the per-operation latency / per-QP flow analysis
	// to trace output.
	Analyze bool
}

// Options tunes one execution.
type Options struct {
	// Quick applies the scenario's reduced-fidelity profile.
	Quick bool
	// Side outputs, forwarded into the workload's Output.
	CounterCSV   string
	CaptureCSV   string
	CaptureTrace string
	Analyze      bool
}

// Run executes a scenario value against its workload and writes the
// rendered result to w.
func Run(sc Scenario, w io.Writer, opts Options) error {
	if opts.Quick {
		sc = sc.ApplyQuick()
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	wl := workloads[sc.Workload]
	if err := wl.Validate(&sc); err != nil {
		return err
	}
	return wl.Run(&sc, &Output{
		W:            w,
		CounterCSV:   opts.CounterCSV,
		CaptureCSV:   opts.CaptureCSV,
		CaptureTrace: opts.CaptureTrace,
		Analyze:      opts.Analyze,
	})
}

// RunNamed looks a scenario up in the registry and runs it.
func RunNamed(name string, w io.Writer, opts Options) error {
	sc, err := Lookup(name)
	if err != nil {
		return err
	}
	return Run(sc, w, opts)
}

// System resolves the scenario's (single) system with fault knobs
// applied; empty System selects the workload-wide default, KNL — the
// system the paper ran all packet-level analysis on.
func (sc *Scenario) ResolvedSystem() (cluster.System, error) {
	return sc.resolveSystem(sc.System, cluster.KNL())
}

// ResolvedSystems resolves the Systems list with fault knobs applied,
// falling back to defaults when the list is empty.
func (sc *Scenario) ResolvedSystems(defaults []cluster.System) ([]cluster.System, error) {
	if len(sc.Systems) == 0 {
		out := make([]cluster.System, len(defaults))
		for i, s := range defaults {
			sys, err := sc.resolveSystem(s.Name, s)
			if err != nil {
				return nil, err
			}
			out[i] = sys
		}
		return out, nil
	}
	out := make([]cluster.System, len(sc.Systems))
	for i, name := range sc.Systems {
		sys, err := sc.resolveSystem(name, cluster.System{})
		if err != nil {
			return nil, err
		}
		out[i] = sys
	}
	return out, nil
}

// ResolvedVariants returns the scenario's series as fully resolved
// variants: when no series are declared, the scenario itself is the
// single variant. Each variant inherits unset fields from the scenario.
func (sc *Scenario) ResolvedVariants() []Variant {
	if len(sc.Series) == 0 {
		return []Variant{{
			Ops:        sc.Ops,
			RNRDelayMs: sc.RNRDelayMs,
			StepMs:     sc.StepMs,
			Grid:       sc.Grid,
		}}
	}
	out := make([]Variant, len(sc.Series))
	for i, v := range sc.Series {
		if v.Ops == 0 {
			v.Ops = sc.Ops
		}
		if v.RNRDelayMs == 0 {
			v.RNRDelayMs = sc.RNRDelayMs
		}
		if v.StepMs == 0 {
			v.StepMs = sc.StepMs
		}
		if v.Grid == nil {
			v.Grid = sc.Grid
		}
		out[i] = v
	}
	return out
}

// RequireTrials is a helper for workloads that average over trials.
func RequireTrials(sc *Scenario) error {
	if sc.Trials == 0 {
		return fmt.Errorf("scenario %q: zero trials (workload %q averages over trials)", sc.Name, sc.Workload)
	}
	return nil
}

// RequireGrid is a helper for workloads that sweep a grid.
func RequireGrid(sc *Scenario) error {
	for _, v := range sc.ResolvedVariants() {
		if v.Grid == nil {
			return fmt.Errorf("scenario %q: missing grid (workload %q sweeps one)", sc.Name, sc.Workload)
		}
	}
	return nil
}
