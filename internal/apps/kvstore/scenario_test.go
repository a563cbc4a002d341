package kvstore

import (
	"io"
	"runtime"
	"testing"
	"time"

	"odpsim/internal/scenario"
)

// TestScenarioLeavesNoGoroutines runs the kvstore workload repeatedly and
// checks the goroutine count returns to its baseline: the softrel server
// loop parks forever once the client is done, and unless the run unwinds
// it, each run leaves one goroutine behind holding its whole cluster.
func TestScenarioLeavesNoGoroutines(t *testing.T) {
	sc, err := scenario.LoadSpec([]byte(`{"name": "kv-leak", "workload": "kvstore", "system": "Reedbush-H", "ops": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	const runs = 5
	for i := 0; i < runs; i++ {
		if err := scenario.Run(sc, io.Discard, scenario.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// An unwound process goroutine hands control back just before it
	// returns, so give the stragglers a moment to finish exiting.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > base && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if got > base {
		t.Errorf("%d goroutines after %d runs, %d before: parked processes outlive their run", got, runs, base)
	}
}
