package odp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
)

func setup(t *testing.T, cfg Config) (*sim.Engine, *hostmem.AddressSpace, *Engine) {
	t.Helper()
	eng := sim.New(1)
	as := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
	return eng, as, New(as, cfg)
}

func TestFaultMakesVisible(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	if e.Access(1, a, 100) {
		t.Fatal("fresh page should not be accessible")
	}
	e.Fault(1, a, 100)
	if e.StaleCount() != 1 {
		t.Errorf("StaleCount = %d", e.StaleCount())
	}
	eng.Run()
	if !e.Access(1, a, 100) {
		t.Error("page should be visible after fault resolution")
	}
	if e.StaleCount() != 0 {
		t.Error("stale count should drop to zero")
	}
	if e.Faults != 1 || e.PairFaults != 1 || e.Updates != 1 {
		t.Errorf("counters: faults=%d pairs=%d updates=%d", e.Faults, e.PairFaults, e.Updates)
	}
	// Resolution time = host resolve (200–700µs) + update (≈40µs).
	if eng.Now() < 200*sim.Microsecond || eng.Now() > 800*sim.Microsecond {
		t.Errorf("resolution took %v", eng.Now())
	}
}

func TestVisibilityIsPerQP(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	e.Fault(1, a, 100)
	eng.Run()
	if e.Access(2, a, 100) {
		t.Error("QP 2 should not see QP 1's translation update")
	}
	// QP 2 faults on a host-mapped page: only an update is needed.
	before := eng.Now()
	e.Fault(2, a, 100)
	eng.Run()
	if !e.Access(2, a, 100) {
		t.Error("QP 2 should be visible after its own fault")
	}
	if e.Faults != 1 {
		t.Errorf("host-level faults = %d, want 1 (page already mapped)", e.Faults)
	}
	// The second fault should cost roughly one update, not a resolve.
	if d := eng.Now() - before; d > 100*sim.Microsecond {
		t.Errorf("second-QP fault took %v, want ≈40µs", d)
	}
}

func TestFaultIdempotent(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	e.Fault(1, a, 100)
	e.Fault(1, a, 100)
	e.Fault(1, a, 100)
	eng.Run()
	if e.PairFaults != 1 || e.Updates != 1 {
		t.Errorf("repeated Fault should register once: pairs=%d updates=%d", e.PairFaults, e.Updates)
	}
}

func TestMultiPageFault(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(3 * hostmem.PageSize)
	e.Fault(1, a, 3*hostmem.PageSize)
	eng.Run()
	if !e.Access(1, a, 3*hostmem.PageSize) {
		t.Error("all pages should be visible")
	}
	if e.Faults != 3 || e.Updates != 3 {
		t.Errorf("faults=%d updates=%d", e.Faults, e.Updates)
	}
}

func TestResolvesAreSerial(t *testing.T) {
	// N pages faulted together should take ≈ N × resolve latency: the
	// pipeline is the paper's "limited memory and functionality".
	eng, as, e := setup(t, DefaultConfig())
	const n = 10
	a := as.Alloc(n * hostmem.PageSize)
	e.Fault(1, a, n*hostmem.PageSize)
	eng.Run()
	min := sim.Time(n) * 200 * sim.Microsecond
	if eng.Now() < min {
		t.Errorf("%d resolves took %v, want ≥ %v (serialized)", n, eng.Now(), min)
	}
}

func TestLIFOUpdateOrder(t *testing.T) {
	// With many QPs faulting the same page, the earliest-faulting QP is
	// updated last (Figure 11a's first-30-stuck shape).
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	const n = 8
	var order []uint32
	for qp := uint32(0); qp < n; qp++ {
		e.Fault(qp, a, 32)
	}
	// Poll visibility transitions.
	var watch func()
	seen := make(map[uint32]bool)
	watch = func() {
		for qp := uint32(0); qp < n; qp++ {
			if !seen[qp] && e.Visible(qp, hostmem.PageOf(a)) {
				seen[qp] = true
				order = append(order, qp)
			}
		}
		if len(order) < n {
			eng.After(sim.Microsecond, watch)
		}
	}
	eng.After(0, watch)
	eng.Run()
	if len(order) != n {
		t.Fatalf("only %d QPs became visible", len(order))
	}
	if order[0] != n-1 || order[n-1] != 0 {
		t.Errorf("update order = %v, want LIFO (newest first)", order)
	}
}

func TestFIFOAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdatesFIFO = true
	eng, as, e := setup(t, cfg)
	a := as.Alloc(hostmem.PageSize)
	e.Fault(0, a, 32)
	e.Fault(1, a, 32)
	firstVisible := uint32(99)
	var watch func()
	watch = func() {
		if firstVisible == 99 {
			for qp := uint32(0); qp < 2; qp++ {
				if e.Visible(qp, hostmem.PageOf(a)) {
					firstVisible = qp
					return
				}
			}
			eng.After(sim.Microsecond, watch)
		}
	}
	eng.After(0, watch)
	eng.Run()
	if firstVisible != 0 {
		t.Errorf("FIFO should update QP 0 first, got %d", firstVisible)
	}
}

func TestSpuriousDelaysUpdates(t *testing.T) {
	// Same fault pattern, with and without spurious traffic: spurious
	// pipeline work must delay completion (the flood feedback).
	run := func(spurious int) sim.Time {
		eng, as, e := setup(t, DefaultConfig())
		a := as.Alloc(hostmem.PageSize)
		for qp := uint32(0); qp < 16; qp++ {
			e.Fault(qp, a, 32)
		}
		// Distinct (QP, page) pairs so coalescing does not absorb them.
		for i := 0; i < spurious; i++ {
			e.Spurious(uint32(100+i), a, 32)
		}
		eng.Run()
		return eng.Now()
	}
	quiet, noisy := run(0), run(200)
	if noisy <= quiet+4*sim.Millisecond {
		t.Errorf("200 spurious items should add ≈5ms: quiet=%v noisy=%v", quiet, noisy)
	}
}

func TestSpuriousCoalescing(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	e.Fault(1, a, 32)
	// A storm of re-discards on one stale pair coalesces to ≈1 queued
	// item at a time: the pipeline must not be swamped.
	for i := 0; i < 1000; i++ {
		e.Spurious(1, a, 32)
	}
	if e.QueueLen() > 3 {
		t.Errorf("queue = %d items, want coalesced", e.QueueLen())
	}
	eng.Run()
	if e.SpuriousTotal != 1000 {
		t.Errorf("SpuriousTotal = %d (should still count all)", e.SpuriousTotal)
	}
	if eng.Now() > 2*sim.Millisecond {
		t.Errorf("coalesced storm took %v", eng.Now())
	}
}

func TestSpuriousFreeAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpuriousFree = true
	eng, as, e := setup(t, cfg)
	a := as.Alloc(hostmem.PageSize)
	e.Fault(0, a, 32)
	for i := 0; i < 1000; i++ {
		e.Spurious(0, a, 32)
	}
	eng.Run()
	if eng.Now() > sim.Millisecond {
		t.Errorf("with SpuriousFree, spurious items must cost nothing; took %v", eng.Now())
	}
	if e.SpuriousTotal != 1000 {
		t.Errorf("SpuriousTotal = %d (should still count)", e.SpuriousTotal)
	}
}

// TestRetransIntervalIgnoresLoad: the client retransmits on fixed
// RetransBase rounds (the ≈0.5 ms of Figure 1), however many (QP, page)
// pairs are stale.
func TestRetransIntervalIgnoresLoad(t *testing.T) {
	cfg := DefaultConfig()
	_, as, e := setup(t, cfg)
	if got := e.RetransInterval(); got != RetransBase {
		t.Errorf("idle interval = %v, want %v", got, RetransBase)
	}
	a := as.Alloc(100 * hostmem.PageSize)
	for qp := uint32(0); qp < 100; qp++ {
		e.Fault(qp, a+hostmem.Addr(qp)*hostmem.PageSize, 32)
	}
	if e.StaleCount() != 100 {
		t.Fatalf("StaleCount = %d, want 100", e.StaleCount())
	}
	if got := e.RetransInterval(); got != RetransBase {
		t.Errorf("loaded interval = %v, want %v", got, RetransBase)
	}
}

func TestInvalidationClearsVisibility(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	e.Fault(1, a, 100)
	e.Fault(2, a, 100)
	eng.Run()
	as.Release(a, hostmem.PageSize)
	if e.Visible(1, hostmem.PageOf(a)) || e.Visible(2, hostmem.PageOf(a)) {
		t.Error("released page should be invisible to every QP")
	}
	// Re-fault works.
	e.Fault(1, a, 100)
	eng.Run()
	if !e.Visible(1, hostmem.PageOf(a)) {
		t.Error("re-fault after invalidation should succeed")
	}
}

func TestPinnedPageFaultIsCheap(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	as.Pin(a, hostmem.PageSize)
	e.Fault(1, a, 100)
	eng.Run()
	if !e.Access(1, a, 100) {
		t.Error("pinned page should become visible")
	}
	if e.Faults != 0 {
		t.Error("no host-level fault should be needed for a pinned page")
	}
}

func TestAccessPartialRange(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	a := as.Alloc(2 * hostmem.PageSize)
	e.Fault(1, a, 10) // first page only
	eng.Run()
	if !e.Access(1, a, hostmem.PageSize) {
		t.Error("first page should be accessible")
	}
	if e.Access(1, a, hostmem.PageSize+1) {
		t.Error("range spilling into unfaulted page must not be accessible")
	}
}

// TestRecycledEngineSizesSpuriousTable checks that a recycled engine
// sizes its spurious table to the pairs the previous generation faulted,
// so spurious traffic on them in a later generation does not grow it.
func TestRecycledEngineSizesSpuriousTable(t *testing.T) {
	eng, as, e := setup(t, DefaultConfig())
	as.Alloc(129 * hostmem.PageSize)
	a := as.Alloc(hostmem.PageSize) // page 130
	e.Fault(3, a, 32)
	eng.Run()
	eng.Reset(2)
	as = hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
	e = New(as, DefaultConfig()) // the same engine, recycled
	p := hostmem.PageOf(a)
	if e.queuedSpurious.width(3) <= int(p>>6) {
		t.Fatal("recycled spurious table does not cover the faulted pair")
	}
	e.Fault(3, a, 32)
	e.Spurious(3, a, 32)
	eng.Run()
	if e.Updates != 1 || e.SpuriousTotal != 1 {
		t.Errorf("recycled engine: updates=%d spurious=%d, want 1 and 1", e.Updates, e.SpuriousTotal)
	}
}

// TestColdAllocFaults pins the cold cost of a bulk fault: one QP
// faulting P pages at once on a fresh engine queues P resolves, and
// their registrant lists come from blocks, not one list per page.
// Doubling P adds at most P/64 + 4 allocations: a block of registrant
// arrays per keyBlock pages, a few per table the map splits off as it
// grows, and a doubling each of the pipeline queue and status tables.
func TestColdAllocFaults(t *testing.T) {
	run := func(pages int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			eng, as, e := setup(t, DefaultConfig())
			a := as.Alloc(pages * hostmem.PageSize)
			e.Fault(1, a, pages*hostmem.PageSize)
			eng.Run()
			if e.Updates != uint64(pages) {
				t.Fatalf("%d updates, want %d", e.Updates, pages)
			}
		})
	}
	const pages = 1024
	a, b := run(pages), run(2*pages)
	ceiling := float64(pages/64 + 4)
	t.Logf("cold bulk fault: %d pages → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", pages, a, 2*pages, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling a %d-page fault added %.0f allocations, want at most %.0f", pages, b-a, ceiling)
	}
}

// TestColdAllocRegistrants pins the cold cost of pages with several
// registrants: four QPs faulting each of P pages at once on a fresh
// engine grow each page's list from its one-pair first array to two and
// four pairs, by arrays carved from the key store, the outgrown ones
// going to the spare lists. Doubling P adds what TestColdAllocFaults
// allows a single registrant (P/64 + 4) plus the key-store blocks of
// the longer arrays, seven keys a page and a block per keyBlock keys:
// about P/30, where growing each list by append took two allocations a
// page.
func TestColdAllocRegistrants(t *testing.T) {
	const qps = 4
	run := func(pages int) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			eng, as, e := setup(t, DefaultConfig())
			a := as.Alloc(pages * hostmem.PageSize)
			for qp := uint32(1); qp <= qps; qp++ {
				e.Fault(qp, a, pages*hostmem.PageSize)
			}
			eng.Run()
			if e.Faults != uint64(pages) || e.Updates != uint64(qps*pages) {
				t.Fatalf("%d faults and %d updates, want %d and %d", e.Faults, e.Updates, pages, qps*pages)
			}
		})
	}
	const pages = 1024
	a, b := run(pages), run(2*pages)
	ceiling := float64(pages/64 + 7*pages/keyBlock + 4)
	t.Logf("cold registrants: %d pages × %d QPs → %.0f allocations, %d pages → %.0f (ceiling for the doubling %.0f)", pages, qps, a, 2*pages, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling %d pages of %d registrants added %.0f allocations, want at most %.0f", pages, qps, b-a, ceiling)
	}
}

// TestPipelineBuiltOnFirstFault checks that an engine builds its
// pipeline callbacks and registrant map on its first fault, not in New:
// a device whose memory is pinned never faults, and its engine costs
// only the struct, its arena and its notifier. Invalidations reach an
// engine that never faulted, and a recycled engine keeps its pipeline.
func TestPipelineBuiltOnFirstFault(t *testing.T) {
	fresh := func() *hostmem.AddressSpace { return hostmem.NewAddressSpace(sim.New(1), hostmem.DefaultConfig()) }
	cost := testing.AllocsPerRun(20, func() { New(fresh(), DefaultConfig()) }) - testing.AllocsPerRun(20, func() { fresh() })
	t.Logf("New on a fresh engine: %.0f allocations", cost)
	if cost > 4 {
		t.Errorf("New allocates %.0f objects, want at most 4 (engine, arena and its entry, notifier)", cost)
	}

	eng, as, e := setup(t, DefaultConfig())
	if e.finishFn != nil || e.interested != nil {
		t.Fatal("New built the pipeline")
	}
	a := as.Alloc(2 * hostmem.PageSize)
	as.Touch(a, hostmem.PageSize)
	as.Release(a, hostmem.PageSize)
	if e.Invalidations != 0 {
		t.Errorf("an engine that never faulted flushed %d translations", e.Invalidations)
	}
	e.Fault(1, a, 2*hostmem.PageSize)
	eng.Run()
	if e.finishFn == nil || e.Updates != 2 {
		t.Fatalf("first fault: pipeline built %v, %d updates, want 2", e.finishFn != nil, e.Updates)
	}
	as.Release(a, 2*hostmem.PageSize)
	if e.Invalidations != 2 {
		t.Errorf("invalidation flushed %d translations, want 2", e.Invalidations)
	}

	eng.Reset(2)
	e = New(hostmem.NewAddressSpace(eng, hostmem.DefaultConfig()), DefaultConfig())
	if e.finishFn == nil || e.interested == nil {
		t.Error("a recycled engine dropped its pipeline")
	}
}
