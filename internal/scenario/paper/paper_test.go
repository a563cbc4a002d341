package paper

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"odpsim/internal/scenario"
)

// TestRegistryMatchesExperiments checks the registry against the repo
// docs both ways: every `odpsim run <name>` quoted in EXPERIMENTS.md
// must resolve, and every golden in results/ must be a registered
// scenario's output file.
func TestRegistryMatchesExperiments(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	re := regexp.MustCompile(`odpsim run ([a-z0-9-]+)`)
	quoted := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		if m[1] == "--all" {
			continue
		}
		quoted[m[1]] = true
	}
	if len(quoted) < 10 {
		t.Fatalf("EXPERIMENTS.md quotes only %d `odpsim run` commands — regex or docs drifted", len(quoted))
	}
	for name := range quoted {
		if _, err := scenario.Lookup(name); err != nil {
			t.Errorf("EXPERIMENTS.md references %q: %v", name, err)
		}
	}

	registered := map[string]bool{}
	for _, name := range scenario.Names() {
		registered[name] = true
	}
	goldens, err := filepath.Glob(filepath.Join("..", "..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no goldens under results/")
	}
	for _, g := range goldens {
		name := filepath.Base(g)
		name = name[:len(name)-len(".txt")]
		if !registered[name] {
			t.Errorf("results/%s.txt has no registered scenario", name)
		}
	}
}

// TestRegistryWellFormed validates every registered scenario eagerly:
// scenario-level Validate, workload-level Validate, and the quick
// profile's validity too (ApplyQuick must not produce a broken grid).
func TestRegistryWellFormed(t *testing.T) {
	names := scenario.Names()
	if len(names) < 14 {
		t.Fatalf("registry has %d scenarios, want the full paper set", len(names))
	}
	for _, name := range names {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Title == "" {
			t.Errorf("%s: no title", name)
		}
		for _, variant := range []scenario.Scenario{sc, sc.ApplyQuick()} {
			if err := variant.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			w, _ := scenario.LookupWorkload(variant.Workload)
			if err := w.Validate(&variant); err != nil {
				t.Errorf("%s (workload): %v", name, err)
			}
		}
	}
}

// TestQuickRunsDeterministic runs every non-Slow scenario twice at quick
// fidelity and requires byte-identical output — the same contract the CI
// freshness check enforces at full fidelity against results/.
func TestQuickRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("quick runs take a few seconds each")
	}
	for _, name := range scenario.Names() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Slow {
			continue // fig9 and tab13 are minutes even quick-ish; covered by Validate above
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var a, b bytes.Buffer
			if err := scenario.RunNamed(name, &a, scenario.Options{Quick: true}); err != nil {
				t.Fatalf("run 1: %v", err)
			}
			if err := scenario.RunNamed(name, &b, scenario.Options{Quick: true}); err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if a.Len() == 0 {
				t.Fatal("empty output")
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("two quick runs differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
			}
		})
	}
}

// TestSpecFileEndToEnd is the acceptance scenario from the issue: a user
// JSON spec — ConnectX-5 hardware, 1% packet loss, congestion on — runs
// through `odpsim run <spec.json>` machinery without any Go code.
func TestSpecFileEndToEnd(t *testing.T) {
	spec := []byte(`{
  "name": "lossy-cx5-kv",
  "title": "KV store on Azure VM HC, 1% loss, congestion modeled",
  "workload": "kvstore",
  "system": "Azure VM HC",
  "ops": 200,
  "seed": 7,
  "faults": {"loss_rate": 0.01},
  "congestion": {}
}
`)
	path := filepath.Join(t.TempDir(), "lossy.json")
	if err := os.WriteFile(path, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := scenario.Run(sc, &a, scenario.Options{}); err != nil {
		t.Fatalf("spec run: %v", err)
	}
	if err := scenario.Run(sc, &b, scenario.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("spec run is not deterministic")
	}
	if !bytes.Contains(a.Bytes(), []byte("dropped")) {
		t.Errorf("lossy run should report fabric drops:\n%s", a.String())
	}
	// The same spec must also survive a save/load round trip.
	out, err := scenario.SaveSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := scenario.LoadSpec(out)
	if err != nil {
		t.Fatalf("re-load of saved spec: %v\n%s", err, out)
	}
	var c bytes.Buffer
	if err := scenario.Run(again, &c, scenario.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("round-tripped spec ran differently")
	}
}

// TestGoldenFreshness replays the fast scenarios at full fidelity and
// compares against results/ — a cheap in-tree version of the CI
// freshness step (which runs the slow ones too).
func TestGoldenFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity runs")
	}
	for _, name := range []string{"fig1-server", "fig1-client", "fig5", "fig8", "perf-compare"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "..", "results", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := scenario.RunNamed(name, &got, scenario.Options{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("results/%s.txt is stale:\n--- golden\n%s\n--- regenerated\n%s", name, want, got.String())
			}
		})
	}
}

// TestTab13MatchesReference runs tab13 at one trial of one sampled wave
// (the SparkUCX/UCX/ODP path, deduplicated waves and all) and compares
// it byte for byte with the reference the perfbench harness checks.
func TestTab13MatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates Table 13's twelve distinct waves")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "perfbench", "ref", "tab13-trials1-waves1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Lookup("tab13")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trials, sc.Waves = 1, 1
	var got bytes.Buffer
	if err := scenario.Run(sc, &got, scenario.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tab13 at 1 trial, 1 wave differs from perfbench/ref/tab13-trials1-waves1.txt:\n%s", got.String())
	}
}
