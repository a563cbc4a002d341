package main

import (
	"bufio"
	"os"
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
