package fabric

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// TestAllocBudgetSendDeliver pins the warm datapath's allocation budget:
// a burst of pooled sends, delivered and recycled, must stay within 2
// allocations per burst (the occasional event-heap or free-list growth).
// This is the tentpole invariant of DESIGN.md §8 — steady-state traffic
// allocates nothing.
func TestAllocBudgetSendDeliver(t *testing.T) {
	eng := sim.New(1)
	f := New(eng, DefaultConfig())
	src := f.AttachPort(1, "src", func(*packet.Packet) {})
	f.AttachPort(2, "dst", func(*packet.Packet) {})
	pool := f.Pool()

	burst := func() {
		for i := 0; i < 64; i++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = uint32(i)
			src.Send(p)
		}
		eng.Run()
	}
	burst() // warm the pool, delivery free list and event heap

	avg := testing.AllocsPerRun(100, burst)
	t.Logf("warm send→deliver burst allocates %.1f/op (budget 2)", avg)
	if avg > 2 {
		t.Errorf("warm send→deliver burst allocates %.1f/op, budget 2", avg)
	}
}

// TestAllocBudgetRebuildOnResetEngine pins the per-trial budget of the
// fabric layer itself: rebuilding a fabric with two ports on a
// Reset-reused engine draws everything — the fabric, its ports, LID
// tables and registries — from the engine-generation arenas, so a
// rebuilt trial allocates nothing.
func TestAllocBudgetRebuildOnResetEngine(t *testing.T) {
	eng := sim.New(1)
	trial := func() {
		f := New(eng, DefaultConfig())
		src := f.AttachPort(1, "src", func(*packet.Packet) {})
		f.AttachPort(2, "dst", func(*packet.Packet) {})
		pool := f.Pool()
		for i := 0; i < 16; i++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			src.Send(p)
		}
		eng.Run()
		eng.Reset(1)
	}
	trial() // first trial constructs the arenas

	avg := testing.AllocsPerRun(50, trial)
	t.Logf("rebuilt trial allocates %.1f/op (budget 0)", avg)
	if avg > 0 {
		t.Errorf("rebuilt trial allocates %.1f/op, budget 0", avg)
	}
}

// TestAllocBudgetFabricAttach pins how the fabric's tables scale with
// the LID space. Attaching LIDs one by one must grow the LID tables
// O(log n) times, not once per port, and per-pair state must follow the
// pairs that carry traffic: a 1024-LID fabric where two pairs talk stays
// within a budget an N×N table (16 bytes a pair, 16 MiB at 1024 LIDs)
// would blow through on its own.
func TestAllocBudgetFabricAttach(t *testing.T) {
	const lids = 1024
	f := New(sim.New(1), DefaultConfig())
	growths, lastCap := 0, cap(f.ports)
	for lid := uint16(1); lid <= lids; lid++ {
		f.AttachPort(lid, "", func(*packet.Packet) {})
		if c := cap(f.ports); c != lastCap {
			growths, lastCap = growths+1, c
		}
	}
	if limit := bits.Len(lids); growths > limit {
		t.Errorf("attaching %d LIDs one by one grew the LID tables %d times, want ≤ %d", lids, growths, limit)
	}

	run := func() {
		eng := sim.New(1)
		f := New(eng, DefaultConfig())
		ports := make([]*Port, lids+1)
		for lid := uint16(1); lid <= lids; lid++ {
			ports[lid] = f.AttachPort(lid, "", func(*packet.Packet) {})
		}
		pairs := [][2]uint16{{1, lids}, {2, lids - 1}}
		for i := 0; i < 1000; i++ {
			pr := pairs[i%2]
			src, dst := pr[i/2%2], pr[1-i/2%2]
			p := f.Pool().Get()
			p.Opcode = packet.OpWriteOnly
			p.DLID = dst
			ports[src].Send(p)
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	}
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	// Measured at 229.6 kB and 1296 allocations (the engine, the fabric
	// and 1024 ports); the budgets leave about 10% headroom.
	if bytes > 250_000 || allocs > 1_400 {
		t.Errorf("1024-LID fabric with two talking pairs allocates %d B in %d allocations per run, budget 250000 B and 1400",
			bytes, allocs)
	}
}

// TestColdAllocDeliveries pins the cold cost of the delivery path: K
// packets sent at once on a fresh fabric take their packets (48 a
// block) and their deliveries (deliveryBlock a block) from blocks, so
// doubling K adds about K/48 + K/deliveryBlock allocations plus one
// delay-line doubling, not 2K.
func TestColdAllocDeliveries(t *testing.T) {
	run := func(k int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			f := New(sim.New(1), DefaultConfig())
			src := f.AttachPort(1, "src", func(*packet.Packet) {})
			f.AttachPort(2, "dst", func(*packet.Packet) {})
			for i := 0; i < k; i++ {
				p := f.Pool().Get()
				p.Opcode = packet.OpReadRequest
				p.DLID = 2
				src.Send(p)
			}
		})
	}
	const k = 1024
	a, b := run(k), run(2*k)
	ceiling := float64(k/48 + k/deliveryBlock + 2)
	t.Logf("cold sends: %d → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", k, a, 2*k, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling %d sends added %.0f allocations, want at most %.0f", k, b-a, ceiling)
	}
}

// TestRegistrationBudgetFabric checks that a fabric rebuilt on a Reset
// engine registers its counters, and a port attached to it its own,
// with no allocation.
func TestRegistrationBudgetFabric(t *testing.T) {
	eng := sim.New(1)
	reg := telemetry.NewRegistry(telemetry.Label{})
	build := func() {
		eng.Reset(1)
		f := New(eng, DefaultConfig())
		reg.Reset(telemetry.Label{Key: "device", Value: "node0"})
		f.AttachPort(1, "node0", nil).RegisterMetrics(reg)
	}
	build()
	if avg := testing.AllocsPerRun(20, build); avg != 0 {
		t.Errorf("a fabric and port rebuilt on a Reset engine allocate %.1f objects, want 0", avg)
	}
	if got := New(eng, DefaultConfig()).Telemetry().Len(); got != len(metrics) {
		t.Errorf("a new fabric registers %d metrics, its table has %d", got, len(metrics))
	}
}
