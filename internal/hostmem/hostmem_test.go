package hostmem

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"odpsim/internal/sim"
)

func newAS(t *testing.T) (*sim.Engine, *AddressSpace) {
	t.Helper()
	eng := sim.New(1)
	return eng, NewAddressSpace(eng, DefaultConfig())
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		addr Addr
		len  int
		want int
	}{
		{0, 1, 1},
		{0, 4096, 1},
		{0, 4097, 2},
		{100, 4096, 2},
		{4096, 8192, 2},
		{4095, 2, 2},
		{0, 0, 0},
		{0, -5, 0},
	}
	for _, c := range cases {
		got := PagesSpanned(c.addr, c.len)
		if len(got) != c.want {
			t.Errorf("PagesSpanned(%d,%d) = %v, want %d pages", c.addr, c.len, got, c.want)
		}
	}
}

func TestPagesSpannedProperty(t *testing.T) {
	f := func(addr uint32, length uint16) bool {
		a, l := Addr(addr), int(length)
		got := PagesSpanned(a, l)
		if l == 0 {
			return len(got) == 0
		}
		// Contiguous, covers first and last byte.
		if got[0] != PageOf(a) || got[len(got)-1] != PageOf(a+Addr(l)-1) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(100)
	b := as.Alloc(5000)
	c := as.Alloc(1)
	for _, x := range []Addr{a, b, c} {
		if x%PageSize != 0 {
			t.Errorf("Alloc returned unaligned address %d", x)
		}
	}
	if b < a+PageSize {
		t.Error("allocations overlap")
	}
	if c < b+2*PageSize {
		t.Error("5000-byte allocation should span 2 pages")
	}
}

func TestTouchMapsPages(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(3 * PageSize)
	if as.State(PageOf(a)) != Unmapped {
		t.Fatal("fresh page should be unmapped")
	}
	as.Touch(a, 2*PageSize)
	if as.State(PageOf(a)) != Mapped || as.State(PageOf(a)+1) != Mapped {
		t.Error("touched pages should be mapped")
	}
	if as.State(PageOf(a)+2) != Unmapped {
		t.Error("untouched page should stay unmapped")
	}
}

func TestPinUnpin(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(2 * PageSize)
	cost := as.Pin(a, 2*PageSize)
	if cost != 2*DefaultConfig().PinPerPage {
		t.Errorf("pin cost = %v", cost)
	}
	if as.State(PageOf(a)) != Pinned {
		t.Error("pinned page not Pinned")
	}
	// Double pin: refcounted, no extra cost for already-pinned pages.
	if c2 := as.Pin(a, PageSize); c2 != 0 {
		t.Errorf("re-pin cost = %v, want 0", c2)
	}
	as.Unpin(a, PageSize)
	if as.State(PageOf(a)) != Pinned {
		t.Error("page should stay pinned while one pin remains")
	}
	as.Unpin(a, PageSize)
	if as.State(PageOf(a)) != Mapped {
		t.Error("fully unpinned page should be Mapped")
	}
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(PageSize)
	defer func() {
		if recover() == nil {
			t.Error("Unpin of unpinned page should panic")
		}
	}()
	as.Unpin(a, PageSize)
}

func TestResolveFaultLatency(t *testing.T) {
	eng, as := newAS(t)
	a := as.Alloc(PageSize)
	var doneAt sim.Time
	as.ResolveFault(PageOf(a), func() { doneAt = eng.Now() })
	eng.Run()
	cfg := DefaultConfig()
	if doneAt < cfg.FaultResolveMin || doneAt > cfg.FaultResolveMax {
		t.Errorf("fault resolved at %v, want within [%v,%v]", doneAt, cfg.FaultResolveMin, cfg.FaultResolveMax)
	}
	if as.State(PageOf(a)) != Mapped {
		t.Error("resolved page should be Mapped")
	}
	if as.FaultsResolved != 1 {
		t.Errorf("FaultsResolved = %d", as.FaultsResolved)
	}
}

func TestResolveFaultCoalescing(t *testing.T) {
	eng, as := newAS(t)
	a := as.Alloc(PageSize)
	done := 0
	as.ResolveFault(PageOf(a), func() { done++ })
	as.ResolveFault(PageOf(a), func() { done++ }) // while resolving
	eng.Run()
	if done != 2 {
		t.Errorf("done = %d, want 2", done)
	}
	if as.FaultsResolved != 1 {
		t.Errorf("coalesced faults should resolve once, got %d", as.FaultsResolved)
	}
}

func TestResolveMappedIsImmediate(t *testing.T) {
	eng, as := newAS(t)
	a := as.Alloc(PageSize)
	as.Touch(a, PageSize)
	var doneAt sim.Time = -1
	eng.RunUntil(50 * sim.Microsecond)
	as.ResolveFault(PageOf(a), func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 50*sim.Microsecond {
		t.Errorf("mapped page resolve completed at %v, want immediately", doneAt)
	}
}

func TestReleaseNotifiesAndUnmaps(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(3 * PageSize)
	as.Touch(a, 3*PageSize)
	as.Pin(a+2*PageSize, PageSize) // last page pinned: must survive
	var got []PageNo
	as.RegisterNotifier(func(inv Invalidation) { got = append(got, inv.Pages...) })
	as.Release(a, 3*PageSize)
	if len(got) != 2 {
		t.Fatalf("notified pages = %v, want the 2 unpinned ones", got)
	}
	if as.State(PageOf(a)) != Unmapped || as.State(PageOf(a)+1) != Unmapped {
		t.Error("released pages should be Unmapped")
	}
	if as.State(PageOf(a)+2) != Pinned {
		t.Error("pinned page must not be released")
	}
}

func TestReleaseUnmappedIsSilent(t *testing.T) {
	_, as := newAS(t)
	a := as.Alloc(PageSize)
	called := false
	as.RegisterNotifier(func(Invalidation) { called = true })
	as.Release(a, PageSize)
	if called {
		t.Error("releasing unmapped pages should not notify")
	}
}

func TestPageStateString(t *testing.T) {
	for s, want := range map[PageState]string{
		Unmapped: "unmapped", Resolving: "resolving", Mapped: "mapped", Pinned: "pinned",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if PageState(42).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestAllocNonPositivePanics(t *testing.T) {
	_, as := newAS(t)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) should panic")
		}
	}()
	as.Alloc(0)
}

// TestResetReadiesSpareWaiters checks that a recycled address space
// keeps its resolution record, with its waiter array and bound
// callback, so the next generation's first fault allocates nothing.
func TestResetReadiesSpareWaiters(t *testing.T) {
	eng, as := newAS(t)
	p := PageOf(as.Alloc(PageSize))
	as.ResolveFault(p, func() {})
	eng.Run()
	eng.Reset(2)
	as = NewAddressSpace(eng, DefaultConfig()) // the same space, recycled
	if as.freeRes == nil || cap(as.freeRes.waiters) == 0 {
		t.Fatal("recycled space should keep its resolution record and waiter array")
	}
	done := 0
	waiter := func() { done++ }
	q := PageOf(as.Alloc(2 * PageSize))
	as.pageAt(q) // grow the table outside the measurement
	// AllocsPerRun calls the fault twice (a warm-up, then the run), each
	// on a page of its own.
	if n := testing.AllocsPerRun(1, func() {
		as.ResolveFault(q, waiter)
		eng.Run()
		q++
	}); n != 0 {
		t.Errorf("recycled fault allocated %v objects, want 0", n)
	}
	if done != 2 || as.FaultsResolved != 2 {
		t.Errorf("recycled faults: done=%d resolved=%d, want 2 and 2", done, as.FaultsResolved)
	}
}

// TestColdAllocPages pins the cold cost of the page layer: on a fresh
// address space, touching P pages and faulting P more one after another,
// as the ODP pipeline does, grows the page table once and reuses one
// resolution record, so doubling P adds no allocations.
func TestColdAllocPages(t *testing.T) {
	run := func(pages int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			eng := sim.New(1)
			as := NewAddressSpace(eng, DefaultConfig())
			a := as.Alloc(2 * pages * PageSize)
			as.Touch(a, pages*PageSize)
			p, end := PageOf(a)+PageNo(pages), PageOf(a)+PageNo(2*pages)
			var next func()
			next = func() {
				if p < end {
					p++
					as.ResolveFault(p-1, next)
				}
			}
			next()
			eng.Run()
			if as.FaultsResolved != uint64(pages) || as.State(end-1) != Mapped {
				t.Fatalf("%d faults resolved, want %d", as.FaultsResolved, pages)
			}
		})
	}
	const pages = 1024
	a, b := run(pages), run(2*pages)
	t.Logf("cold touch+fault: %d pages → %.0f allocations, %d → %.0f", pages, a, 2*pages, b)
	if b-a > 1 {
		t.Errorf("doubling %d touched and faulted pages added %.0f allocations, want at most 1", pages, b-a)
	}
}
