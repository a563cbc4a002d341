package congestion

import (
	"fmt"
	"slices"
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// testHarness wires a Network to recording hooks.
type testHarness struct {
	eng   *sim.Engine
	net   *Network
	delay map[*packet.Packet]sim.Time

	delivered []uint16 // dst of each delivery, in order
	pkts      []*packet.Packet
	drops     []string // reason of each drop
	pauses    []bool   // xoff flag of each pause frame
}

func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	h := &testHarness{eng: sim.New(1), delay: make(map[*packet.Packet]sim.Time)}
	h.net = NewNetwork(h.eng, cfg, 56, 2*sim.Microsecond, Hooks{
		Deliver: func(dst uint16, pkt *packet.Packet, ws int) {
			h.delivered = append(h.delivered, dst)
			h.pkts = append(h.pkts, pkt)
			h.delay[pkt] = h.eng.Now()
		},
		Drop: func(src uint16, pkt *packet.Packet, reason string) {
			h.drops = append(h.drops, reason)
		},
		Pause: func(from, to string, xoff bool) {
			h.pauses = append(h.pauses, xoff)
		},
	})
	return h
}

func (h *testHarness) send(src, dst uint16, payload int) *packet.Packet {
	pkt := &packet.Packet{SLID: src, DLID: dst, Opcode: packet.OpWriteOnly, PayloadLen: payload}
	h.net.Send(src, dst, pkt, pkt.WireSize())
	return pkt
}

func TestDeliveryAcrossSwitchChain(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// LIDs 1 and 2 sit on different switches (round-robin attach), so the
	// packet crosses the oversubscribed inter-switch link.
	h.send(1, 2, 64)
	h.eng.MustRun()
	if len(h.delivered) != 1 || h.delivered[0] != 2 {
		t.Fatalf("delivered = %v, want [2]", h.delivered)
	}
	if len(h.drops) != 0 {
		t.Fatalf("unexpected drops: %v", h.drops)
	}
	// Three serializations + two propagation hops is a hard lower bound.
	if got := h.delay[h.pkts[0]]; got <= 4*sim.Microsecond {
		t.Fatalf("delivery at %v, want > 2 propagation hops", got)
	}
	if h.net.QueuedBytes() != 0 {
		t.Fatalf("buffer not drained: %d bytes", h.net.QueuedBytes())
	}
}

func TestSameSwitchDelivery(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// LIDs 1 and 3 both attach to sw0; nothing crosses the core.
	h.send(1, 3, 64)
	h.eng.MustRun()
	if len(h.delivered) != 1 || h.delivered[0] != 3 {
		t.Fatalf("delivered = %v, want [3]", h.delivered)
	}
}

func TestFIFOWithinFlow(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	first := h.send(1, 2, 256)
	second := h.send(1, 2, 0)
	h.eng.MustRun()
	if len(h.pkts) != 2 || h.pkts[0] != first || h.pkts[1] != second {
		t.Fatalf("delivery order broken: %v", h.delivered)
	}
}

func TestBufferOverflowTailDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferBytes = 512
	cfg.ECN = false
	h := newHarness(t, cfg)
	// A burst far larger than the shared buffer, funneled onto the slow
	// inter-switch link, must overflow sw0.
	for i := 0; i < 64; i++ {
		h.send(1, 2, 128)
	}
	h.eng.MustRun()
	if len(h.drops) == 0 {
		t.Fatal("expected tail drops on buffer overflow")
	}
	for _, r := range h.drops {
		if r != "switch buffer overflow" {
			t.Fatalf("drop reason = %q", r)
		}
	}
	if got := int(h.net.switches[0].Drops); got != len(h.drops) {
		t.Fatalf("switch drop counter = %d, hook saw %d", got, len(h.drops))
	}
	if len(h.delivered)+len(h.drops) != 64 {
		t.Fatalf("conservation: %d delivered + %d dropped != 64", len(h.delivered), len(h.drops))
	}
}

func TestPFCMakesFabricLossless(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferBytes = 2048
	cfg.PFC = true
	cfg.XOffBytes = 1024
	cfg.XOnBytes = 256
	cfg.ECN = false
	h := newHarness(t, cfg)
	for i := 0; i < 64; i++ {
		h.send(1, 2, 128)
	}
	h.eng.MustRun()
	if len(h.drops) != 0 {
		t.Fatalf("PFC fabric dropped %d packets: %v", len(h.drops), h.drops[0])
	}
	if len(h.delivered) != 64 {
		t.Fatalf("delivered %d of 64", len(h.delivered))
	}
	var xoff, xon int
	for _, x := range h.pauses {
		if x {
			xoff++
		} else {
			xon++
		}
	}
	if xoff == 0 || xoff != xon {
		t.Fatalf("pause frames xoff=%d xon=%d, want matched non-zero pairs", xoff, xon)
	}
	if h.net.PauseDurationMicros() <= 0 {
		t.Fatal("no pause duration accumulated")
	}
	var frames uint64
	for _, sw := range h.net.switches {
		frames += sw.PauseFrames
	}
	if int(frames) != xoff+xon {
		t.Fatalf("switch pause-frame counters = %d, hook saw %d", frames, xoff+xon)
	}
}

func TestECNMarksAboveThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECN = true
	cfg.ECNThresholdBytes = 256
	h := newHarness(t, cfg)
	for i := 0; i < 32; i++ {
		h.send(1, 2, 128)
	}
	h.eng.MustRun()
	marked := 0
	for _, p := range h.pkts {
		if p.ECN {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no packets ECN-marked under backlog")
	}
	if marked == len(h.pkts) {
		t.Fatal("every packet marked — threshold not applied to the early ones")
	}
	if got := int(h.net.switches[0].EcnMarked + h.net.switches[1].EcnMarked); got != marked {
		t.Fatalf("switch ECN counters = %d, delivered marks = %d", got, marked)
	}
}

func TestCNPOvertakesPausedData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFC = true
	cfg.BufferBytes = 2048
	cfg.XOffBytes = 1024
	cfg.XOnBytes = 256
	h := newHarness(t, cfg)
	for i := 0; i < 32; i++ {
		h.send(1, 2, 256)
	}
	cnp := &packet.Packet{SLID: 1, DLID: 2, Opcode: packet.OpCNP}
	h.net.Send(1, 2, cnp, cnp.WireSize())
	h.eng.MustRun()
	pos := -1
	for i, p := range h.pkts {
		if p == cnp {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("CNP not delivered")
	}
	// The CNP entered last but rides the never-paused priority VL, so it
	// must overtake most of the queued data.
	if pos > 4 {
		t.Fatalf("CNP delivered at position %d of %d — control lane not prioritized", pos, len(h.pkts))
	}
}

func TestSwitchQueueGauges(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	for i := 0; i < 16; i++ {
		h.send(1, 2, 256)
	}
	h.eng.MustRun()
	snap := h.net.Telemetry().Snapshot(h.eng.Now())
	if v := snap.Total("sim_switch_queue_peak_bytes"); v <= 0 {
		t.Fatalf("queue peak gauge = %v, want > 0", v)
	}
	if v := snap.Total("sim_switch_queue_bytes"); v != 0 {
		t.Fatalf("drained fabric still gauges %v queued bytes", v)
	}
}

func TestDCQCNCutAndRecovery(t *testing.T) {
	eng := sim.New(1)
	rs := NewRateState(eng, 56)
	if rs.Limited() {
		t.Fatal("fresh rate state must start at line rate")
	}
	rs.HandleCNP()
	cut := rs.CurrentGbps()
	if cut >= 56 {
		t.Fatalf("CNP did not cut the rate: %v", cut)
	}
	// alpha starts at g=1/16, so the first cut is rc*(1-1/32).
	want := 56 * (1 - 1.0/32)
	if diff := cut - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("first cut = %v, want %v", cut, want)
	}
	rs.HandleCNP()
	if rs.CurrentGbps() >= cut {
		t.Fatal("second CNP did not cut further")
	}
	// With no further CNPs the timers must recover the rate to line and
	// then disarm, so the engine drains on its own.
	eng.MustRun()
	if rs.Limited() {
		t.Fatalf("rate never recovered: %v Gb/s", rs.CurrentGbps())
	}
	if rs.Cuts != 2 {
		t.Fatalf("Cuts = %d, want 2", rs.Cuts)
	}
}

func TestDCQCNReservePacing(t *testing.T) {
	eng := sim.New(1)
	rs := NewRateState(eng, 56)

	// At line rate Reserve is the identity: the wire is the only limit.
	if got, ok := rs.Reserve(100, 1024); !ok || got != 100 {
		t.Fatalf("line-rate Reserve = %v/%v, want 100", got, ok)
	}

	rs.HandleCNP()
	rate := rs.CurrentGbps()
	first, ok1 := rs.Reserve(100, 1024)
	second, ok2 := rs.Reserve(100, 1024)
	if !ok1 || !ok2 {
		t.Fatal("limited Reserve refused inside the backlog bound")
	}
	if first != 100 {
		t.Fatalf("first limited Reserve = %v, want immediate start", first)
	}
	gap := second - first
	want := sim.Time(float64(1024*8) / rate)
	if gap != want {
		t.Fatalf("pacing gap = %v, want %v at %v Gb/s", gap, want, rate)
	}
	eng.MustRun()
}

func TestDCQCNBacklogSheds(t *testing.T) {
	eng := sim.New(1)
	rs := NewRateState(eng, 56)
	for i := 0; i < 60; i++ {
		rs.HandleCNP() // drive the rate toward the floor
	}
	granted := 0
	for i := 0; i < 10000; i++ {
		if _, ok := rs.Reserve(0, 1024); ok {
			granted++
		}
	}
	if rs.Shed == 0 {
		t.Fatal("burst far beyond the backlog bound never shed")
	}
	if granted == 0 {
		t.Fatal("everything shed — backlog bound too tight")
	}
	if uint64(10000-granted) != rs.Shed {
		t.Fatalf("granted %d + shed %d != 10000", granted, rs.Shed)
	}
	eng.MustRun()
}

func TestDCQCNMinRateFloor(t *testing.T) {
	eng := sim.New(1)
	rs := NewRateState(eng, 56)
	for i := 0; i < 200; i++ {
		rs.HandleCNP()
	}
	if rs.CurrentGbps() < 0.1 {
		t.Fatalf("rate fell through the floor: %v", rs.CurrentGbps())
	}
	eng.MustRun()
}

func TestXOffBelowXOnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for XOff <= XOn")
		}
	}()
	cfg := DefaultConfig()
	cfg.PFC = true
	cfg.XOffBytes = 256
	cfg.XOnBytes = 1024
	NewNetwork(sim.New(1), cfg, 56, sim.Microsecond, Hooks{})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, uint64, uint64) {
		cfg := DefaultConfig()
		cfg.PFC = true
		cfg.ECN = true
		h := newHarness(t, cfg)
		for i := 0; i < 48; i++ {
			h.send(1, 2, 128)
			h.send(2, 1, 96)
		}
		h.eng.MustRun()
		return len(h.delivered), h.net.switches[0].EcnMarked, h.net.switches[0].PauseFrames
	}
	d1, e1, p1 := run()
	d2, e2, p2 := run()
	if d1 != d2 || e1 != e2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, e1, p1, d2, e2, p2)
	}
}

// selfReplyDeliveries sends burst packets from host 1 to itself through
// its edge switch; the first replies deliveries each send one more from
// inside the Deliver hook, so the reply's flight joins the wire of the
// switch port the packet just landed from. It returns every delivery as
// "psn@instant" after drive.
func selfReplyDeliveries(t *testing.T, burst, replies int, drive func(*sim.Engine)) []string {
	t.Helper()
	eng := sim.New(1)
	var n *Network
	var trace []string
	send := func(psn int) {
		pkt := &packet.Packet{SLID: 1, DLID: 1, Opcode: packet.OpWriteOnly, PayloadLen: 64, PSN: uint32(psn)}
		n.Send(1, 1, pkt, pkt.WireSize())
	}
	psn := burst
	n = NewNetwork(eng, DefaultConfig(), 56, 2*sim.Microsecond, Hooks{
		Deliver: func(dst uint16, pkt *packet.Packet, ws int) {
			trace = append(trace, fmt.Sprintf("%d@%v", pkt.PSN, eng.Now()))
			if psn < burst+replies {
				send(psn)
				psn++
			}
		},
		Drop: func(uint16, *packet.Packet, string) { t.Fatal("self-reply traffic dropped") },
	})
	for i := 0; i < burst; i++ {
		send(i)
	}
	drive(eng)
	if len(trace) != burst+replies || eng.QueueLen() != 0 || n.QueuedBytes() != 0 {
		t.Fatalf("%d deliveries, %d events and %d bytes left; want %d, 0, 0", len(trace), eng.QueueLen(), n.QueuedBytes(), burst+replies)
	}
	return trace
}

// TestHostSendsOntoTheWireItLandsFrom is the switched network's case of
// a handler that replies to its own LID: every packet is delivered once,
// and Run, where wire flights land in place, delivers them in the order
// and at the instants a Step loop does.
func TestHostSendsOntoTheWireItLandsFrom(t *testing.T) {
	for _, burst := range []int{1, 8} {
		want := selfReplyDeliveries(t, burst, 6, func(e *sim.Engine) {
			for e.Step() {
			}
		})
		got := selfReplyDeliveries(t, burst, 6, func(e *sim.Engine) { e.Run() })
		if !slices.Equal(got, want) {
			t.Fatalf("burst %d: Run delivered %v, a Step loop %v", burst, got, want)
		}
	}
}
