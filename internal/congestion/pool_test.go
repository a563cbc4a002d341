package congestion

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// TestVLQueueCapacityStopsGrowing pins the fix for the front-slicing
// leak: the old `p.q[vl] = p.q[vl][1:]` queue walked its backing array
// forward on every pop, so append re-allocated it on every burst and the
// consumed front stayed reachable. The ring buffer must reach a
// steady-state capacity on the first burst and never grow again for
// same-sized bursts.
func TestVLQueueCapacityStopsGrowing(t *testing.T) {
	h := newHarness(t, Config{Switches: 2, PFC: true})

	const burst = 200
	run := func() int {
		for i := 0; i < burst; i++ {
			h.send(1, 2, 1024)
		}
		h.eng.Run()
		return cap(h.net.uplink(1).q[VLData].buf)
	}

	warm := run()
	if warm == 0 {
		t.Fatal("uplink VL ring never grew: burst did not queue")
	}
	for round := 0; round < 5; round++ {
		if got := run(); got != warm {
			t.Fatalf("round %d: VL ring capacity %d, want steady-state %d — the queue re-allocates per burst",
				round, got, warm)
		}
	}
	if len(h.delivered) != 6*burst {
		t.Fatalf("delivered %d, want %d", len(h.delivered), 6*burst)
	}
}

// TestWireDelayLineKeepsHeapShallow pins the propagation delay-line
// property: no matter how many packets a 2 µs wire holds at once, each
// port contributes at most one scheduled callback (the head flight), so
// the engine's event heap stays shallow — the property that keeps the
// congested path's per-event cost flat at storm scale.
func TestWireDelayLineKeepsHeapShallow(t *testing.T) {
	h := newHarness(t, Config{Switches: 2, PFC: true})

	const burst = 512
	for i := 0; i < burst; i++ {
		h.send(1, 2, 64) // small frames: hundreds fit in one 2 µs flight
	}
	maxHeap := 0
	for h.eng.Step() {
		if q := h.eng.QueueLen(); q > maxHeap {
			maxHeap = q
		}
	}
	if len(h.delivered) != burst {
		t.Fatalf("delivered %d, want %d", len(h.delivered), burst)
	}
	// 2 switches: a handful of tx-done events plus one head flight per
	// port. Anything near the burst size means flights went back to
	// one-event-per-packet.
	if maxHeap > 16 {
		t.Errorf("event heap reached %d entries for a %d-packet burst, want ≤16 (one callback per wire)",
			maxHeap, burst)
	}
}

// TestScratchArenasRecycleAcrossGenerations checks the engine-generation
// arena contract: after an Engine.Reset, a rebuilt network reuses last
// generation's network, switch, port and entry storage instead of
// allocating fresh structs — while two networks built side by side in
// one generation stay distinct.
func TestScratchArenasRecycleAcrossGenerations(t *testing.T) {
	eng := sim.New(1)
	build := func() *Network {
		return NewNetwork(eng, Config{Switches: 2}, 56, 2*sim.Microsecond, Hooks{
			Deliver: func(dst uint16, pkt *packet.Packet, ws int) {},
			Drop:    func(src uint16, pkt *packet.Packet, reason string) {},
		})
	}

	n1 := build()
	pkt := &packet.Packet{SLID: 1, DLID: 2, Opcode: packet.OpWriteOnly, PayloadLen: 1024}
	n1.Send(1, 2, pkt, pkt.WireSize())
	eng.Run()
	sw1 := n1.switches[0]
	up1 := n1.uplink(1)

	if n2 := build(); n2 == n1 {
		t.Fatal("two networks in one generation share a struct")
	}

	eng.Reset(2)
	n3 := build()
	if n3 != n1 {
		t.Error("network struct not recycled across Reset")
	}
	if n3.switches[0] != sw1 {
		t.Error("switch struct not recycled across Reset")
	}
	n3.Send(1, 2, pkt, pkt.WireSize())
	eng.Run()
	if got := n3.uplink(1); got != up1 {
		t.Error("port struct not recycled across Reset")
	}
	if got := len(n3.switches); got != 2 {
		t.Fatalf("recycled network has %d switches, want 2", got)
	}
}

// TestColdAllocQueuedEntries pins the cold cost of the switch queues:
// E packets queued at once on a fresh network take their entries from
// blocks, and the uplink's VL ring starts from a 16-slot chunk carved
// from the engine's chunk blocks and doubles from there, so doubling E
// adds about E/entryBlock allocations plus one ring doubling, not E.
func TestColdAllocQueuedEntries(t *testing.T) {
	const e = 1024
	pkts := make([]*packet.Packet, 2*e)
	for i := range pkts {
		pkts[i] = &packet.Packet{SLID: 1, DLID: 2, Opcode: packet.OpWriteOnly, PayloadLen: 64}
	}
	run := func(n int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			net := NewNetwork(sim.New(1), DefaultConfig(), 56, 2*sim.Microsecond, Hooks{})
			for _, p := range pkts[:n] {
				net.Send(1, 2, p, p.WireSize())
			}
		})
	}
	a, b := run(e), run(2*e)
	ceiling := float64(e/entryBlock + 2)
	t.Logf("cold queued entries: %d → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", e, a, 2*e, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling %d queued entries added %.0f allocations, want at most %.0f", e, b-a, ceiling)
	}
}

// TestColdAllocClosBuild pins the cold cost of the switch graph: a
// fresh network carves its switches and ports by count (Blocks.NewFor)
// and carves every switch's egress and routing arrays from per-network
// arrays, so doubling a Clos fabric's switches (radix 8 to 16, 12 to 24
// switches, 64 to 256 links) adds at most switches/uncountedBlock
// allocations plus a few for tables that grow by doubling, not some per
// switch or per link.
func TestColdAllocClosBuild(t *testing.T) {
	run := func(radix int) (float64, int) {
		cfg := DefaultConfig()
		cfg.Topology = ClosTopology(2, radix, 1)
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			NewNetwork(sim.New(1), cfg, 56, 2*sim.Microsecond, Hooks{})
		}), cfg.Topology.SwitchCount()
	}
	a, small := run(8)
	b, large := run(16)
	ceiling := float64(large/uncountedBlock + 2)
	t.Logf("cold clos build: %d switches → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", small, a, large, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling the switches from %d to %d added %.0f allocations, want at most %.0f", small, large, b-a, ceiling)
	}
}

// TestPauseNamesFollowRecycledPorts pins the names a port renders at its
// first pause frame: an incast's pause frames name the pausing switch
// and the paused port by role, and a network rebuilt on a Reset engine,
// whose recycled ports paused under other roles last trial, names them
// exactly as a network on a fresh engine does.
func TestPauseNamesFollowRecycledPorts(t *testing.T) {
	incast := func(eng *sim.Engine, cfg Config) []string {
		cfg.PFC = true
		cfg.XOffBytes = 1 << 10
		cfg.XOnBytes = 512
		var names []string
		n := NewNetwork(eng, cfg, 56, 2*sim.Microsecond, Hooks{
			Deliver: func(uint16, *packet.Packet, int) {},
			Drop:    func(uint16, *packet.Packet, string) {},
			Pause: func(from, to string, xoff bool) {
				if xoff {
					names = append(names, from+" pauses "+to)
				}
			},
		})
		for i := 0; i < 16; i++ {
			for src := uint16(2); src <= 8; src++ {
				pkt := &packet.Packet{SLID: src, DLID: 1, Opcode: packet.OpWriteOnly, PayloadLen: 512}
				n.Send(src, 1, pkt, pkt.WireSize())
			}
		}
		eng.MustRun()
		return names
	}
	fresh := incast(sim.New(1), closConfig())
	if !slices.Contains(fresh, "sw0 pauses sw4-sw0") {
		t.Fatalf("the incast into sw0 never paused spine sw4's downlink: %v", fresh)
	}
	eng := sim.New(1)
	chain := incast(eng, DefaultConfig())
	if !slices.Contains(chain, "sw1 pauses host8-sw1") {
		t.Fatalf("the chain incast never paused host 8's uplink: %v", chain)
	}
	eng.Reset(1)
	recycled := incast(eng, closConfig())
	for i := range min(len(recycled), len(fresh)) {
		if recycled[i] != fresh[i] {
			t.Fatalf("pause frame %d on recycled ports: %q, on fresh ports: %q", i, recycled[i], fresh[i])
		}
	}
	if len(recycled) != len(fresh) {
		t.Errorf("%d pause frames on recycled ports, %d on fresh ports", len(recycled), len(fresh))
	}
}

// TestRegistrationBudgetNetwork checks that a network rebuilt on a
// Reset engine registers its pause gauge and every switch's counters
// with no allocation, and that it registers each switch's table once.
func TestRegistrationBudgetNetwork(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.Topology = ClosTopology(2, 4, 1)
	build := func() *Network {
		eng.Reset(1)
		return NewNetwork(eng, cfg, 56, 2*sim.Microsecond, Hooks{})
	}
	build()
	if avg := testing.AllocsPerRun(20, func() { build() }); avg != 0 {
		t.Errorf("a network rebuilt on a Reset engine allocates %.1f objects, want 0", avg)
	}
	net := build()
	if got, want := net.tel.Len(), len(metrics)+len(switchMetrics)*len(net.switches); got != want {
		t.Errorf("a %d-switch network registers %d metrics, want %d", len(net.switches), got, want)
	}
}
