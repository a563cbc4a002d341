// Contract test for kv-serve's parallel pods (DESIGN.md §12): `-shards`
// is a pure throughput knob. The scenario must produce byte-identical
// output at every `-shards` value, against the committed golden.
package odpsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

// TestShardedByteIdentical runs kv-serve, the one scenario that fans
// out across lanes (its 16 pods), at shards 1, 2, 4 and 16 (one worker
// per pod) and requires each run to match the committed golden byte for
// byte. The collective patterns run on one engine whatever the knob
// says; their goldens are checked with the rest of results/.
func TestShardedByteIdentical(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("results", "kv-serve.txt"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	for _, shards := range []int{1, 2, 4, 16} {
		sc, err := scenario.Lookup("kv-serve")
		if err != nil {
			t.Fatal(err)
		}
		sc.Shards = shards
		var buf bytes.Buffer
		if err := scenario.Run(sc, &buf, scenario.Options{}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("kv-serve at shards=%d differs from results/kv-serve.txt — sharding changed the simulation", shards)
		}
	}
}
