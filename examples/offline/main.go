// Command offline demonstrates the workflow the paper's authors were
// forced into (§IX-A: "detecting the pitfalls becomes extremely hard
// without observing the raw packets"): capture a run to a trace file,
// then analyze it offline — here, re-loading the binary capture and
// running the damming detector over it.
package main

import (
	"bytes"
	"fmt"
	"log"

	"odpsim"
)

func main() {
	// Phase 1: the Figure-5 run, captured — two READs 1 ms apart with
	// both-side ODP, the second posted inside the pending window.
	cfg := odpsim.DefaultBench()
	cfg.Interval = odpsim.Millisecond
	cfg.WithCapture = true
	r := odpsim.RunMicrobench(cfg)
	fmt.Printf("run finished after %v; %d packets captured\n", r.ExecTime, r.Cap.Total())

	// Phase 2: save the capture (the ibdump .pcap step)…
	var traceFile bytes.Buffer
	if err := r.Cap.WriteTrace(&traceFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary trace: %d bytes\n", traceFile.Len())

	// Phase 3: …and analyze it offline, away from the cluster.
	records, err := odpsim.ReadTrace(&traceFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded %d records\n", len(records))

	reloaded := odpsim.CaptureFromRecords(records)
	incs := odpsim.DetectDamming(reloaded, 100*odpsim.Millisecond)
	if len(incs) == 0 {
		log.Fatal("offline analysis found no damming in the Figure-5 trace")
	}
	fmt.Println("offline analysis found packet damming:")
	for _, inc := range incs {
		fmt.Printf("  %s\n", inc)
	}
}
