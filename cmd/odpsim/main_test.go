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

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Args = append([]string{"odpsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `odpsim <args>` in a child process and returns its
// combined output and exit status.
func runMain(t *testing.T, args string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("odpsim %s: %v", args, err)
	}
	return out, 0
}

// TestRunRejectsNegativeCounts runs `odpsim run fig4 -quick <flag> -1`
// for each count flag. Zero keeps the scenario's count, but a negative
// value must be a usage error — exit status 2 with a message naming the
// flag — instead of silently running the default.
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, flag := range []string{"-trials", "-waves", "-shards", "-j"} {
		out, code := runMain(t, "run fig4 -quick "+flag+" -1 -o "+t.TempDir())
		if code != 2 {
			t.Errorf("%s -1: exit status %d, want 2; output:\n%s", flag, code, out)
			continue
		}
		if !strings.Contains(string(out), flag+" must not be negative") {
			t.Errorf("%s -1: output does not name the flag:\n%s", flag, out)
		}
	}
}

// TestRunValidatesOverridesFirst runs two scenarios with a bad
// -transport value: scenario validation rejects it with the mode
// vocabulary before the first scenario runs, so no -o output exists.
func TestRunValidatesOverridesFirst(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	out, code := runMain(t, "run fig4 fig5 -quick -trials 1 -transport gbn -o "+dir)
	if code == 0 {
		t.Fatalf("-transport gbn ran; output:\n%s", out)
	}
	if !strings.Contains(string(out), `unknown transport mode "gbn" (want rc or irn)`) {
		t.Errorf("output does not name the bad mode:\n%s", out)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("output directory %s exists after a rejected run (stat: %v)", dir, err)
	}
}
