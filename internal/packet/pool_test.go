package packet

import (
	"runtime"
	"runtime/debug"
	"testing"
)

var sinkPacket *Packet

// TestColdAllocGets pins the cold cost of a pool: K outstanding Gets on
// a fresh pool take their packets from blocks, so doubling K adds about
// K/packetBlock allocations, not K. Allocs still counts the packets
// created.
func TestColdAllocGets(t *testing.T) {
	gets := func(k int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			pl := NewPool()
			for i := 0; i < k; i++ {
				sinkPacket = pl.Get()
			}
			if pl.Allocs != uint64(k) || pl.Gets != uint64(k) {
				t.Fatalf("%d Gets on an empty pool: Allocs %d, Gets %d, want %d and %d", k, pl.Allocs, pl.Gets, k, k)
			}
		})
	}
	const k = 1024
	a, b := gets(k), gets(2*k)
	t.Logf("cold Gets: %d → %.0f allocations, %d → %.0f (ceiling for the doubling %d)", k, a, 2*k, b, k/packetBlock+1)
	if b-a > k/packetBlock+1 {
		t.Errorf("doubling %d outstanding Gets added %.0f allocations, want at most %d", k, b-a, k/packetBlock+1)
	}
}
