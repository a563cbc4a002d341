package odp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
)

// TestPipelineConservationProperty: for any random mix of faults and
// spurious accesses, once the simulation drains (no traffic regenerates
// work), every registered pair becomes visible, the stale count reaches
// zero, and completed updates equal registered pair-faults.
func TestPipelineConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64, opsRaw []uint16) bool {
		eng := sim.New(seed)
		as := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
		e := New(as, DefaultConfig())
		base := as.Alloc(64 * hostmem.PageSize)
		type pair struct {
			qp   uint32
			page int
		}
		want := map[pair]bool{}
		for _, raw := range opsRaw {
			qp := uint32(raw % 8)
			page := int(raw/8) % 16
			addr := base + hostmem.Addr(page*hostmem.PageSize)
			if raw%3 == 0 {
				e.Spurious(qp, addr, 32)
			} else {
				e.Fault(qp, addr, 32)
				want[pair{qp, page}] = true
			}
		}
		eng.Run()
		if e.StaleCount() != 0 {
			return false
		}
		if e.Updates != e.PairFaults {
			return false
		}
		if int(e.PairFaults) != len(want) {
			return false
		}
		for p := range want {
			if !e.Visible(p.qp, hostmem.PageOf(base)+hostmem.PageNo(p.page)) {
				return false
			}
		}
		// The pipeline must be idle and empty.
		return e.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestInvalidationConsistencyProperty: after any interleaving of faults
// and page releases, no reclaimed page stays visible.
func TestInvalidationConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func(seed int64, steps []uint8) bool {
		eng := sim.New(seed)
		as := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
		e := New(as, DefaultConfig())
		base := as.Alloc(8 * hostmem.PageSize)
		for _, s := range steps {
			page := int(s % 8)
			addr := base + hostmem.Addr(page*hostmem.PageSize)
			if s%2 == 0 {
				e.Fault(uint32(s%4), addr, 16)
			} else {
				eng.Run() // settle in-flight resolutions first
				as.Release(addr, hostmem.PageSize)
				// Invariant: immediately after release, invisible to all.
				for qp := uint32(0); qp < 4; qp++ {
					if e.Visible(qp, hostmem.PageOf(addr)) {
						return false
					}
				}
			}
		}
		eng.Run()
		return e.StaleCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPairTableMatchesMap drives two bitset pair tables and a map each
// through the same random set/clear/zero sequence, over QP numbers and
// page numbers that cross 64-bit word boundaries and grow rows several
// times. The tables carve their rows from one shared store, as an
// engine's tables do, so a move or a zero in one must not touch the
// other's bits.
func TestPairTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var store rowStore
	tbls := [2]pairTable{{store: &store}, {store: &store}}
	models := [2]map[Key]bool{{}, {}}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(2)
		tbl, model := &tbls[i], models[i]
		k := Key{QP: uint32(rng.Intn(12)), Page: hostmem.PageNo(rng.Intn(300))}
		switch op := rng.Intn(100); {
		case op < 50:
			tbl.set(k.QP, k.Page)
			model[k] = true
		case op < 99:
			if was := tbl.clear(k.QP, k.Page); was != model[k] {
				t.Fatalf("step %d: table %d clear%v reported %v, want %v", step, i, k, was, model[k])
			}
			delete(model, k)
		default:
			tbl.zero()
			clear(model)
		}
		for j := range tbls {
			probe := Key{QP: uint32(rng.Intn(14)), Page: hostmem.PageNo(rng.Intn(320))}
			if got := tbls[j].get(probe.QP, probe.Page); got != models[j][probe] {
				t.Fatalf("step %d: table %d get%v = %v, want %v", step, j, probe, got, models[j][probe])
			}
		}
	}
	if len(store.blocks) < 2 {
		t.Fatalf("the tables shared %d store blocks; the test should span several", len(store.blocks))
	}
}
