// Package hostmem models the host side of memory management that On-Demand
// Paging interacts with: a per-node virtual address space divided into
// 4 KiB pages, page states, the kernel's fault-resolution latency, page
// pinning for conventional memory registration, and MMU-notifier style
// invalidation callbacks toward the RNIC.
package hostmem

import (
	"fmt"

	"odpsim/internal/sim"
)

// PageSize is the host page size in bytes (the paper aligns its
// communication buffers to 4096-byte boundaries "considering the page
// size").
const PageSize = 4096

// Addr is a virtual address within one address space.
type Addr uint64

// PageNo identifies a page: Addr / PageSize.
type PageNo uint64

// PageOf returns the page containing a.
func PageOf(a Addr) PageNo { return PageNo(a / PageSize) }

// PageBase returns the first address of page p.
func PageBase(p PageNo) Addr { return Addr(p) * PageSize }

// PagesSpanned returns the pages covered by [addr, addr+len).
func PagesSpanned(addr Addr, length int) []PageNo {
	if length <= 0 {
		return nil
	}
	first := PageOf(addr)
	last := PageOf(addr + Addr(length) - 1)
	out := make([]PageNo, 0, last-first+1)
	for p := first; p <= last; p++ {
		out = append(out, p)
	}
	return out
}

// PageState describes the host-side status of one page.
type PageState int

// Page states.
const (
	// Unmapped: no physical frame is assigned; first touch or an ODP
	// fault must allocate one.
	Unmapped PageState = iota
	// Resolving: the kernel is servicing a fault for this page.
	Resolving
	// Mapped: a physical frame is assigned; the kernel may still reclaim
	// it (which triggers invalidation).
	Mapped
	// Pinned: mapped and locked; the kernel will not reclaim it. This is
	// the state conventional memory registration requires.
	Pinned
)

// String implements fmt.Stringer.
func (s PageState) String() string {
	switch s {
	case Unmapped:
		return "unmapped"
	case Resolving:
		return "resolving"
	case Mapped:
		return "mapped"
	case Pinned:
		return "pinned"
	default:
		return fmt.Sprintf("PageState(%d)", int(s))
	}
}

// Config tunes the kernel model.
type Config struct {
	// FaultResolveMin/Max bound the kernel-side latency of resolving a
	// page fault (allocating or retrieving the page and updating page
	// tables). The paper reports network page faults commonly take
	// 250–1000 µs end to end; the kernel share modelled here is the bulk
	// of it.
	FaultResolveMin sim.Time
	FaultResolveMax sim.Time
	// PinPerPage is the cost of pinning one page during conventional
	// memory registration (get_user_pages + mlock work).
	PinPerPage sim.Time
}

// DefaultConfig returns the calibration used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		FaultResolveMin: 250 * sim.Microsecond,
		FaultResolveMax: 500 * sim.Microsecond,
		PinPerPage:      2 * sim.Microsecond,
	}
}

// Invalidation describes pages the kernel is reclaiming; registered
// notifiers (RNIC drivers) must flush any translations for them.
type Invalidation struct {
	Pages []PageNo
}

// Notifier receives MMU-notifier callbacks.
type Notifier func(Invalidation)

type page struct {
	state PageState
	pins  int
	// resolveWaiters run when the in-flight resolution completes.
	// waiterSpare is the previous completion's backing array, recycled so
	// repeated fault/invalidate cycles on one page stop allocating; the
	// two swap at completion time so waiters queued *during* completion
	// land in a different array than the one being iterated.
	resolveWaiters []func()
	waiterSpare    []func()
	// completeFn is the cached resolution-completion callback, built on
	// the page's first fault so retries reuse one closure.
	completeFn func()
}

// AddressSpace is one node's virtual memory. All methods must be called
// from the simulation loop (events or processes).
type AddressSpace struct {
	eng *sim.Engine
	cfg Config
	// pages is a dense page table indexed by page number: Alloc hands
	// out addresses from a brk that starts at one page and grows
	// contiguously, so page numbers are small consecutive integers and
	// indexing replaces the map hashing the per-packet ODP checks used
	// to pay. Entries stay nil until first use; pointers (not values)
	// because in-flight fault resolutions hold their page across table
	// growth.
	pages     []*page
	brk       Addr
	notifiers []Notifier

	// words stores 8-byte values for atomics and small control data.
	words map[Addr]uint64

	// Counters for tests and reporting.
	FaultsResolved uint64
	PagesPinned    uint64

	arenaNext *AddressSpace
}

// asArenaKey is the engine Aux key of the address-space arena. A
// recycled space keeps its page entries (reset to Unmapped) and their
// cached fault-completion closures, and its word store keeps its
// buckets, so trial loops stop paying construction allocations.
const asArenaKey = "hostmem.addressSpaces"

// NewAddressSpace creates an address space on engine eng, taking it from
// the engine's arena (see sim.Arena); a recycled space is
// indistinguishable from a brand-new one.
func NewAddressSpace(eng *sim.Engine, cfg Config) *AddressSpace {
	a := sim.ArenaOn(eng, asArenaKey, func(as *AddressSpace) **AddressSpace { return &as.arenaNext })
	if as := a.Take(eng); as != nil {
		as.reset(cfg)
		return as
	}
	as := &AddressSpace{
		eng:   eng,
		cfg:   cfg,
		words: make(map[Addr]uint64),
		brk:   PageSize, // keep 0 as an obviously invalid address
	}
	a.Add(as)
	return as
}

// reset returns a recycled address space to its just-constructed state,
// keeping allocated storage: page entries (and their cached completion
// closures, which capture only this AddressSpace and the page, and both
// waiter arrays), the word store's buckets, and the notifier list's
// backing array.
func (as *AddressSpace) reset(cfg Config) {
	as.cfg = cfg
	as.brk = PageSize
	as.notifiers = as.notifiers[:0]
	as.FaultsResolved = 0
	as.PagesPinned = 0
	clear(as.words)
	for _, pg := range as.pages {
		if pg == nil {
			continue
		}
		pg.state = Unmapped
		pg.pins = 0
		pg.resolveWaiters = pg.resolveWaiters[:0]
		// A page that faulted once holds one waiter array and no spare
		// until its second fault; allocating the spare here lets a
		// recycled space reach steady state in its first warm trial
		// instead of whichever later trial faults the page again.
		if pg.resolveWaiters == nil && pg.waiterSpare != nil {
			pg.resolveWaiters = make([]func(), 0, cap(pg.waiterSpare))
		}
	}
}

// Engine returns the simulation engine.
func (as *AddressSpace) Engine() *sim.Engine { return as.eng }

// Alloc reserves length bytes of page-aligned virtual address space and
// returns its base address. Pages start Unmapped (first touch faults),
// exactly like fresh anonymous mappings.
func (as *AddressSpace) Alloc(length int) Addr {
	if length <= 0 {
		panic("hostmem: Alloc of non-positive length")
	}
	base := as.brk
	npages := (Addr(length) + PageSize - 1) / PageSize
	as.brk += npages * PageSize
	return base
}

func (as *AddressSpace) pageAt(p PageNo) *page {
	for PageNo(len(as.pages)) <= p {
		as.pages = append(as.pages, nil)
	}
	pg := as.pages[p]
	if pg == nil {
		pg = &page{state: Unmapped}
		as.pages[p] = pg
	}
	return pg
}

// lookup returns page p's entry without creating one, or nil.
func (as *AddressSpace) lookup(p PageNo) *page {
	if p < PageNo(len(as.pages)) {
		return as.pages[p]
	}
	return nil
}

// State returns the state of page p.
func (as *AddressSpace) State(p PageNo) PageState {
	if pg := as.lookup(p); pg != nil {
		return pg.state
	}
	return Unmapped
}

// Touch synchronously maps every page in [addr, addr+len), modelling the
// application writing to the buffer in advance ("used and touched in
// advance" in the paper's §V-C). It costs no virtual time; use it for
// setup.
func (as *AddressSpace) Touch(addr Addr, length int) {
	for _, p := range PagesSpanned(addr, length) {
		pg := as.pageAt(p)
		if pg.state == Unmapped {
			pg.state = Mapped
		}
	}
}

// Pin maps and pins every page in the range, charging the per-page pinning
// cost to the calling process if proc is non-nil. Pinned pages are never
// invalidated. Pin returns the virtual-time cost it charged.
func (as *AddressSpace) Pin(addr Addr, length int) sim.Time {
	var cost sim.Time
	for _, p := range PagesSpanned(addr, length) {
		pg := as.pageAt(p)
		pg.pins++
		if pg.state != Pinned {
			pg.state = Pinned
			cost += as.cfg.PinPerPage
			as.PagesPinned++
		}
	}
	return cost
}

// Unpin releases a previous Pin. Pages whose pin count drops to zero
// return to Mapped (still resident).
func (as *AddressSpace) Unpin(addr Addr, length int) {
	for _, p := range PagesSpanned(addr, length) {
		pg := as.lookup(p)
		if pg == nil || pg.pins == 0 {
			panic(fmt.Sprintf("hostmem: Unpin of unpinned page %d", p))
		}
		pg.pins--
		if pg.pins == 0 && pg.state == Pinned {
			pg.state = Mapped
		}
	}
}

// RegisterNotifier adds an MMU-notifier callback, invoked on Release.
func (as *AddressSpace) RegisterNotifier(n Notifier) {
	as.notifiers = append(as.notifiers, n)
}

// Release reclaims the (unpinned) pages of the range, notifying all
// registered notifiers first, as the kernel does before freeing pages
// that a device may have translated.
func (as *AddressSpace) Release(addr Addr, length int) {
	var reclaimed []PageNo
	for _, p := range PagesSpanned(addr, length) {
		pg := as.lookup(p)
		if pg == nil || pg.state != Mapped {
			continue // unmapped, resolving or pinned pages stay
		}
		reclaimed = append(reclaimed, p)
	}
	if len(reclaimed) == 0 {
		return
	}
	inv := Invalidation{Pages: reclaimed}
	for _, n := range as.notifiers {
		n(inv)
	}
	for _, p := range reclaimed {
		as.pages[p].state = Unmapped
	}
}

// ResolveFault starts kernel fault resolution for page p and calls done
// when the page is Mapped. If the page is already Mapped or Pinned, done
// runs after zero additional kernel latency (at the current instant). If
// a resolution is already in flight, done is queued behind it — the
// kernel coalesces concurrent faults on one page.
func (as *AddressSpace) ResolveFault(p PageNo, done func()) {
	pg := as.pageAt(p)
	switch pg.state {
	case Mapped, Pinned:
		as.eng.ScheduleAfter(0, done)
		return
	case Resolving:
		pg.resolveWaiters = append(pg.resolveWaiters, done)
		return
	}
	pg.state = Resolving
	pg.resolveWaiters = append(pg.resolveWaiters, done)
	if pg.completeFn == nil {
		pg.completeFn = func() {
			pg.state = Mapped
			as.FaultsResolved++
			ws := pg.resolveWaiters
			pg.resolveWaiters = pg.waiterSpare[:0]
			pg.waiterSpare = ws[:0]
			for _, w := range ws {
				w()
			}
		}
	}
	lat := as.eng.Uniform(as.cfg.FaultResolveMin, as.cfg.FaultResolveMax)
	as.eng.ScheduleAfter(lat, pg.completeFn)
}

// ReadWord returns the 8-byte value at addr (zero if never written).
// Atomic operations and control words use this store; bulk payload data
// is not modelled.
func (as *AddressSpace) ReadWord(addr Addr) uint64 { return as.words[addr] }

// WriteWord stores an 8-byte value at addr.
func (as *AddressSpace) WriteWord(addr Addr, v uint64) { as.words[addr] = v }
