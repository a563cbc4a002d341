package core

import (
	"strings"
	"testing"

	"odpsim/internal/sim"
)

func TestDetectDammingInTwoReadRun(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = sim.Millisecond
	cfg.WithCapture = true
	r := RunMicrobench(cfg)
	if !r.TimedOut() {
		t.Fatal("need a dammed run")
	}
	incidents := DetectDamming(r.Cap, 100*sim.Millisecond)
	if len(incidents) != 1 {
		t.Fatalf("incidents = %v, want exactly the dammed PSN", incidents)
	}
	inc := incidents[0]
	if inc.Stall < 300*sim.Millisecond {
		t.Errorf("stall = %v, want the timeout-scale gap", inc.Stall)
	}
	if !strings.Contains(inc.String(), "stalled") {
		t.Errorf("String() = %q", inc.String())
	}
}

func TestDetectDammingCleanRun(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = sim.FromMillis(5.5)
	cfg.WithCapture = true
	r := RunMicrobench(cfg)
	if r.TimedOut() {
		t.Fatal("expected a clean run")
	}
	if incidents := DetectDamming(r.Cap, 100*sim.Millisecond); len(incidents) != 0 {
		t.Errorf("false positives: %v", incidents)
	}
}

func TestDetectFloodInMultiQPRun(t *testing.T) {
	cfg := DefaultBench()
	cfg.Mode = ClientODP
	cfg.Size = 32
	cfg.NumQPs = 64
	cfg.NumOps = 256
	cfg.CACK = 18
	cfg.WithCapture = true
	r := RunMicrobench(cfg)
	incidents := DetectFlood(r.Cap, 50*sim.Millisecond, 100)
	if len(incidents) == 0 {
		t.Fatalf("no flood detected (retransmits=%d)", r.Retransmits)
	}
	if incidents[0].DistinctQPs < 2 {
		t.Errorf("flood should span QPs: %+v", incidents[0])
	}
	if !strings.Contains(incidents[0].String(), "retransmissions") {
		t.Errorf("String() = %q", incidents[0].String())
	}
	// Windows come out sorted.
	for i := 1; i < len(incidents); i++ {
		if incidents[i].WindowStart < incidents[i-1].WindowStart {
			t.Error("incidents not sorted by window")
		}
	}
}

func TestDetectFloodQuietRun(t *testing.T) {
	cfg := DefaultBench()
	cfg.NumOps = 8
	cfg.Mode = NoODP
	cfg.WithCapture = true
	r := RunMicrobench(cfg)
	if incidents := DetectFlood(r.Cap, 50*sim.Millisecond, 10); len(incidents) != 0 {
		t.Errorf("false positives: %v", incidents)
	}
}

func TestSmallRNRDelayWorkaround(t *testing.T) {
	// §IX-A workaround 1: the smallest RNR delay shrinks the vulnerable
	// window so the same 1 ms schedule no longer dams.
	cfg := DefaultBench()
	cfg.Mode = ServerODP
	cfg.Interval = sim.Millisecond
	if r := RunMicrobench(cfg); !r.TimedOut() {
		t.Fatal("baseline must dam")
	}
	cfg.MinRNRDelay = SmallestRNRDelay
	if r := RunMicrobench(cfg); r.TimedOut() {
		t.Error("smallest RNR delay should avoid the timeout at 1 ms")
	}
}
