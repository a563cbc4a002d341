package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// cohort tags every result with what makes host times comparable. Runs
// compare only within one environment (the first four fields); commit and
// source identify the code under test, which is what a comparison varies.
type cohort struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// sameEnvironment refuses to compare runs from different cohorts.
func (c cohort) sameEnvironment(o cohort) error {
	a := [4]string{fmt.Sprint(c.GOMAXPROCS), fmt.Sprint(c.NProc), c.GoVersion, c.CPUModel}
	b := [4]string{fmt.Sprint(o.GOMAXPROCS), fmt.Sprint(o.NProc), o.GoVersion, o.CPUModel}
	names := [4]string{"gomaxprocs", "nproc", "go_version", "cpu_model"}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("mixed cohorts: %s %q vs %q", names[i], a[i], b[i])
		}
	}
	return nil
}

func (c cohort) sameCode(o cohort) bool { return c.Commit == o.Commit && c.Source == o.Source }

// currentCohort describes this process and the sources under root.
func currentCohort(root string) cohort {
	c := cohort{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				c.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if c.Commit != "unknown" {
			c.Commit += dirty
		}
	}
	return c
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the simulator's Go sources, go.mod and goldens under
// root, so results from a checkout without version control still name the
// code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not hashed
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" || strings.HasPrefix(rel, "results"+string(filepath.Separator)) {
			paths = append(paths, rel)
		}
		return nil
	})
	sort.Strings(paths)
	for _, rel := range paths {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as --record appends it: the result with its cohort
// and per-execution samples.
type record struct {
	Cohort   cohort               `json:"cohort"`
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Samples  map[string][]float64 `json:"samples"`
	Result   result               `json:"result"`
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchSpec(path string) (benchSpec, error) {
	var b benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compare writes a Markdown noise record of two sets of untraced runs:
// per workload and end-to-end metric, each set's quartiles, extremes and
// spread next to the metric's bound, and the drift of the second set's
// median from the first's. Runs from mixed cohorts are refused.
func compare(w io.Writer, spec benchSpec, a, b []record) error {
	a, b = untraced(a), untraced(b)
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("compare needs untraced runs in both sets (have %d and %d)", len(a), len(b))
	}
	for _, r := range append(a[1:], b...) {
		if err := a[0].Cohort.sameEnvironment(r.Cohort); err != nil {
			return err
		}
	}
	kind := "A/A (same code)"
	for _, r := range append(a[1:], b...) {
		if !a[0].Cohort.sameCode(r.Cohort) {
			kind = "A/B (different code)"
		}
	}
	c := a[0].Cohort
	fmt.Fprintf(w, "Comparison: %s, %d vs %d runs.\n\n", kind, len(a), len(b))
	fmt.Fprintf(w, "Cohort: GOMAXPROCS=%d, nproc=%d, %s, %s, commit %s, source %s.\n\n",
		c.GOMAXPROCS, c.NProc, c.GoVersion, c.CPUModel, c.Commit, c.Source)
	fmt.Fprintln(w, "Spread is (q3-q1)/median over one set's runs; drift is (median B - median A)/median A, positive when B is worse.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | bound | set | n | min | q1 | median | q3 | max | spread | drift |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloadOrder(a, b) {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			drift := (median(vb) - median(va)) / median(va)
			if m.Better == "higher" {
				drift = -drift
			}
			for i, vs := range [][]float64{va, vb} {
				lo, hi := minMax(vs)
				q1, q2, q3 := quartiles(vs)
				d := ""
				if i == 1 {
					d = fmt.Sprintf("%+.4f", drift)
				}
				fmt.Fprintf(w, "| %s | %s | %.2f | %s | %d | %.6g | %.6g | %.6g | %.6g | %.6g | %.4f | %s |\n",
					wl, m.Name, m.Bound, []string{"A", "B"}[i], len(vs), lo, q1, q2, q3, hi, spread(vs), d)
			}
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Raw against scaled host time: the spread over one set's runs of each run's median and fastest raw execution seconds, its median kernel time, and its scaled median (`wall_s`).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | set | raw median | raw fastest | kernel time | scaled median (`wall_s`) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, wl := range workloadOrder(a, b) {
		for i, rs := range [][]record{a, b} {
			var rawMed, rawMin, kernel []float64
			for _, r := range rs {
				if r.Workload == wl && len(r.Samples["host_s"]) > 0 {
					lo, _ := minMax(r.Samples["host_s"])
					rawMed = append(rawMed, median(r.Samples["host_s"]))
					rawMin = append(rawMin, lo)
					kernel = append(kernel, median(r.Samples["probe_s"]))
				}
			}
			if len(rawMed) == 0 {
				continue
			}
			fmt.Fprintf(w, "| %s | %s | %.3f | %.3f | %.3f | %.3f |\n", wl, []string{"A", "B"}[i],
				spread(rawMed), spread(rawMin), spread(kernel), spread(values(rs, wl, "wall_s")))
		}
	}
	return nil
}

func untraced(rs []record) []record {
	var out []record
	for _, r := range rs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func workloadOrder(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range sets {
		for _, r := range rs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	return out
}

func values(rs []record, wl, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == wl && !math.IsNaN(m.Value) {
			out = append(out, m.Value)
		}
	}
	return out
}
