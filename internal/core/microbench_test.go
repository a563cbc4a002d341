package core

import (
	"testing"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

func TestSingleReadPerMode(t *testing.T) {
	// Figure 1's common-case latencies: No-ODP ≈ µs, server-side ≈
	// 4.5 ms (RNR wait), client-side ≈ 0.5–1.5 ms (blind retransmit
	// rounds until the status update).
	cases := []struct {
		mode   ODPMode
		lo, hi sim.Time
	}{
		{NoODP, 0, 50 * sim.Microsecond},
		{ServerODP, sim.FromMillis(4), sim.FromMillis(5.2)},
		{ClientODP, sim.FromMicros(300), sim.FromMillis(3)},
		{BothODP, sim.FromMillis(4), sim.FromMillis(7)},
	}
	for _, c := range cases {
		cfg := DefaultBench()
		cfg.NumOps = 1
		cfg.Mode = c.mode
		r := RunMicrobench(cfg)
		if r.Failed {
			t.Fatalf("%v: run failed", c.mode)
		}
		if r.ExecTime < c.lo || r.ExecTime > c.hi {
			t.Errorf("%v: exec = %v, want in [%v, %v]", c.mode, r.ExecTime, c.lo, c.hi)
		}
	}
}

func TestFig4TwoReadTimeline(t *testing.T) {
	// Interval 1 ms, both-side: damming timeout of several hundred ms.
	cfg := DefaultBench()
	cfg.Interval = sim.Millisecond
	r := RunMicrobench(cfg)
	if !r.TimedOut() {
		t.Fatal("expected a timeout at interval 1 ms")
	}
	if r.ExecTime < sim.FromMillis(300) || r.ExecTime > sim.FromMillis(1500) {
		t.Errorf("exec = %v, want several hundred ms", r.ExecTime)
	}
	// Interval 5.5 ms: outside the pending window.
	cfg.Interval = sim.FromMillis(5.5)
	r = RunMicrobench(cfg)
	if r.TimedOut() {
		t.Error("no timeout expected at interval 5.5 ms")
	}
	if r.ExecTime > sim.FromMillis(20) {
		t.Errorf("exec = %v, want ≈10 ms", r.ExecTime)
	}
	// Interval 0: the second post reaches the wire before the RNR NAK.
	cfg.Interval = 0
	r = RunMicrobench(cfg)
	if r.TimedOut() {
		t.Error("no timeout expected at interval 0")
	}
}

func TestFig6aServerODPWindowTracksRNRDelay(t *testing.T) {
	// With minimal RNR NAK delay 1.28 ms the vulnerable window is
	// ≈4.5 ms; with 0.01 ms it shrinks to ≈35 µs.
	base := DefaultBench()
	base.Mode = ServerODP

	base.Interval = sim.FromMillis(3)
	if r := RunMicrobench(base); !r.TimedOut() {
		t.Error("interval 3 ms inside 4.5 ms window: want timeout")
	}
	base.Interval = sim.FromMillis(5.5)
	if r := RunMicrobench(base); r.TimedOut() {
		t.Error("interval 5.5 ms outside window: want no timeout")
	}

	small := base
	small.MinRNRDelay = SmallestRNRDelay // 0.01 ms ⇒ window ≈ 35 µs
	small.Interval = sim.FromMillis(3)
	if r := RunMicrobench(small); r.TimedOut() {
		t.Error("small RNR delay should shrink the window below 3 ms")
	}

	large := base
	large.MinRNRDelay = sim.FromMillis(10.24) // window ≈ 36 ms
	large.Interval = sim.FromMillis(20)
	if r := RunMicrobench(large); !r.TimedOut() {
		t.Error("10.24 ms RNR delay should widen the window past 20 ms")
	}
}

func TestFig6bClientODPWindow(t *testing.T) {
	base := DefaultBench()
	base.Mode = ClientODP
	base.Interval = sim.FromMicros(300)
	if r := RunMicrobench(base); !r.TimedOut() {
		t.Error("interval 300 µs inside the ≈500 µs client window: want timeout")
	}
	base.Interval = sim.FromMillis(3)
	if r := RunMicrobench(base); r.TimedOut() {
		t.Error("interval 3 ms outside the client window: want no timeout")
	}
}

func TestFig7MoreOpsNarrowWindow(t *testing.T) {
	// With 3 ops at interval 2 ms, all fit into the ≈4.5 ms pending
	// window ⇒ timeout; at interval 2.6 ms the third escapes and the
	// PSN-gap NAK rescues everything.
	base := DefaultBench()
	base.NumOps = 3
	base.Interval = sim.FromMillis(2)
	r := RunMicrobench(base)
	if !r.TimedOut() {
		t.Error("3 ops at 2 ms: want timeout")
	}
	base.Interval = sim.FromMillis(3.0)
	r = RunMicrobench(base)
	if r.TimedOut() {
		t.Error("3 ops at 3.0 ms: want NAK rescue, no timeout")
	}
	if r.NakSeqSent == 0 {
		t.Error("rescue should involve a PSN sequence error NAK")
	}
	// 4 ops narrow further: at 2 ms the fourth (posted at 6 ms) escapes.
	base.NumOps = 4
	base.Interval = sim.FromMillis(2)
	r = RunMicrobench(base)
	if r.TimedOut() {
		t.Error("4 ops at 2 ms: the fourth post should rescue")
	}
}

func TestSecondOpWriteOrSendAlsoDams(t *testing.T) {
	// §V-C: damming is not specific to READ as the second operation.
	for _, op := range []rnic.SendOp{rnic.OpWrite, rnic.OpSend} {
		cfg := DefaultBench()
		cfg.Mode = ServerODP
		cfg.Interval = sim.Millisecond
		cfg.OpOverride = func(i int) rnic.SendOp {
			if i == 0 {
				return rnic.OpRead
			}
			return op
		}
		r := RunMicrobench(cfg)
		if !r.TimedOut() {
			t.Errorf("second op %v: want damming timeout", op)
		}
	}
}

func TestMixedSendWriteOverrideNeedsNoRNR(t *testing.T) {
	// RunMicrobench posts one server receive per SEND: a mixed override
	// over 3 QPs, with op counts that do not divide evenly, must find a
	// receive for every SEND (no RNR NAK) and complete every op.
	cfg := DefaultBench()
	cfg.Mode = NoODP
	cfg.NumOps = 20
	cfg.NumQPs = 3
	cfg.OpOverride = func(i int) rnic.SendOp {
		if i%4 == 1 || i%5 == 0 {
			return rnic.OpSend
		}
		return rnic.OpWrite
	}
	// A SEND without a receive retries RNR forever (RNR retry 7), so a
	// missing receive shows as a run that never ends.
	done := make(chan *BenchResult, 1)
	go func() { done <- RunMicrobench(cfg) }()
	var r *BenchResult
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish: a SEND is retrying RNR NAKs without a receive")
	}
	if r.Failed || r.RNRNaksSent != 0 {
		t.Fatalf("failed=%v, %d RNR NAKs; want every SEND to find a receive", r.Failed, r.RNRNaksSent)
	}
	for i, at := range r.CompletionTime {
		if at < 0 {
			t.Errorf("op %d did not complete with WCSuccess", i)
		}
	}
}

func TestTouchedBuffersStillDam(t *testing.T) {
	// §V-C: damming is unrelated to faults on the second communication.
	cfg := DefaultBench()
	cfg.Mode = ServerODP
	cfg.Interval = sim.Millisecond
	cfg.TouchAllButFirst = true
	r := RunMicrobench(cfg)
	if !r.TimedOut() {
		t.Error("pre-touched buffers must still exhibit damming")
	}
}

func TestDummyPingWorkaroundAvoidsTimeout(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = sim.Millisecond
	cfg.DummyPing = true
	cfg.DummyPingInterval = 200 * sim.Microsecond
	r := RunMicrobench(cfg)
	if r.TimedOut() {
		t.Error("dummy-communication workaround should avoid the timeout")
	}
	if r.ExecTime > sim.FromMillis(30) {
		t.Errorf("exec = %v, want ≈10 ms with the workaround", r.ExecTime)
	}
}

func TestMeasureTimeoutFloors(t *testing.T) {
	// Figure 2's floors: ≈500 ms for ConnectX-4 at small C_ACK, ≈30 ms
	// for ConnectX-5; C_ACK=18 ≈ 2 s.
	to := MeasureTimeout(cluster.KNL(), 1, 1)
	if to < sim.FromMillis(350) || to > sim.FromMillis(700) {
		t.Errorf("CX4 T_o(1) = %v, want ≈500 ms", to)
	}
	to5 := MeasureTimeout(cluster.AzureHC(), 1, 2)
	if to5 < sim.FromMillis(20) || to5 > sim.FromMillis(45) {
		t.Errorf("CX5 T_o(1) = %v, want ≈30 ms", to5)
	}
	to18 := MeasureTimeout(cluster.KNL(), 18, 3)
	if to18 < sim.FromMillis(1200) || to18 > sim.FromMillis(4500) {
		t.Errorf("CX4 T_o(18) = %v, want ≈2 s", to18)
	}
	// Monotone beyond the floor.
	if MeasureTimeout(cluster.KNL(), 20, 4) <= to18 {
		t.Error("T_o must grow beyond the vendor floor")
	}
}

func TestTheoreticalLines(t *testing.T) {
	if TheoreticalTTr(1) != sim.Time(8192)*sim.Nanosecond {
		t.Errorf("TTr(1) = %v", TheoreticalTTr(1))
	}
	if TheoreticalTo(1) != 4*TheoreticalTTr(1) {
		t.Error("To must be 4×TTr")
	}
	if TheoreticalTTr(0) != 0 {
		t.Error("TTr(0) must be 0")
	}
}

func TestMicrobenchDeterminism(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = sim.Millisecond
	a := RunMicrobench(cfg)
	b := RunMicrobench(cfg)
	if a.ExecTime != b.ExecTime || a.Retransmits != b.Retransmits || a.PacketsOnWire != b.PacketsOnWire {
		t.Errorf("same seed produced different runs: %+v vs %+v", a, b)
	}
	cfg.Seed++
	c := RunMicrobench(cfg)
	if c.ExecTime == a.ExecTime && c.PacketsOnWire == a.PacketsOnWire {
		t.Log("note: different seed produced identical run (possible but unlikely)")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero NumOps should panic")
		}
	}()
	cfg := DefaultBench()
	cfg.NumOps = 0
	RunMicrobench(cfg)
}
