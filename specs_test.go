package odpsim

import (
	"bytes"
	"path/filepath"
	"testing"

	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

// TestCommittedSpecs loads every JSON spec under examples/specs and runs
// it twice under the quick profile: each must load, validate, render
// something, and render the same bytes both times.
func TestCommittedSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no specs under examples/specs")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := scenario.LoadSpecFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]bytes.Buffer
			for i := range runs {
				if err := scenario.Run(sc, &runs[i], scenario.Options{Quick: true}); err != nil {
					t.Fatal(err)
				}
			}
			if runs[0].Len() == 0 {
				t.Fatal("empty output")
			}
			if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
				t.Errorf("two runs differ:\n%s\n---\n%s", runs[0].Bytes(), runs[1].Bytes())
			}
		})
	}
}
