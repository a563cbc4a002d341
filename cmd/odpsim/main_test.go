package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickKeepsExplicitTrials runs `odpsim run fig4 -quick -trials 1`:
// the quick profile shrinks the grid, but the explicit trial count must
// survive it (fig4's quick profile alone would run 5 trials).
func TestQuickKeepsExplicitTrials(t *testing.T) {
	dir := t.TempDir()
	run([]string{"fig4", "-quick", "-trials", "1", "-j", "1", "-o", dir})
	f, err := os.Open(filepath.Join(dir, "fig4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("fig4 output is empty")
	}
	if title := sc.Text(); !strings.Contains(title, "(both-side ODP, 1 trials)") {
		t.Errorf("title = %q, want the explicit 1 trial", title)
	}
	rows := 0
	for sc.Scan() {
		rows++
	}
	// The quick grid (step 1 ms over 0..6 ms) has 7 points plus the
	// column header; the full grid would have 25.
	if rows != 8 {
		t.Errorf("%d lines after the title, want the quick grid's 8", rows)
	}
}

// childArgsEnv carries a command line into a re-executed copy of this
// test binary, which then runs it through main (the helper-process
// pattern), so tests can observe main's exit status.
const childArgsEnv = "ODPSIM_MAIN_TEST_ARGS"

// TestRunRejectsNegativeCounts runs `odpsim run fig4 -quick <flag> -1`
// for each count flag. Zero keeps the scenario's count, but a negative
// value must be a usage error — exit status 2 with a message naming the
// flag — instead of silently running the default.
func TestRunRejectsNegativeCounts(t *testing.T) {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Args = append([]string{"odpsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, flag := range []string{"-trials", "-waves", "-shards", "-j"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunRejectsNegativeCounts$")
		cmd.Env = append(os.Environ(), childArgsEnv+"=run fig4 -quick "+flag+" -1 -o "+t.TempDir())
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s -1: %v, want exit status 2; output:\n%s", flag, err, out)
			continue
		}
		if !strings.Contains(string(out), flag+" must not be negative") {
			t.Errorf("%s -1: output does not name the flag:\n%s", flag, out)
		}
	}
}
