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
	first, end := span(addr, length)
	if first == end {
		return nil
	}
	out := make([]PageNo, 0, end-first)
	for p := first; p < end; p++ {
		out = append(out, p)
	}
	return out
}

// span returns the half-open page range [first, end) that [addr,
// addr+length) covers; it is empty when length is not positive.
func span(addr Addr, length int) (first, end PageNo) {
	first = PageOf(addr)
	if length <= 0 {
		return first, first
	}
	return first, PageOf(addr+Addr(length)-1) + 1
}

// PageState describes the host-side status of one page.
type PageState uint8

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

// page is one page-table entry, held by value in the dense table.
type page struct {
	// res is the resolution in flight while the page is Resolving.
	res   *resolution
	pins  int32
	state PageState
}

// resolution is one page's fault resolution in flight: the callbacks
// waiting for it and its completion callback, bound once when the
// record is first allocated. Records return to their address space's
// free list as they complete and keep their waiter array, so a stream
// of faults reuses a handful of them (the ODP pipeline resolves one page
// at a time) instead of allocating a waiter slice and a closure per
// page.
type resolution struct {
	as       *AddressSpace
	p        PageNo
	waiters  []func()
	complete func()
	next     *resolution
}

// finish marks the page Mapped, runs the waiters and returns the record
// to the free list. The page is Mapped before any waiter runs, so a
// fault a waiter raises on it does not join this record.
func (r *resolution) finish() {
	as := r.as
	pg := &as.pages[r.p]
	pg.state = Mapped
	pg.res = nil
	as.FaultsResolved++
	for _, w := range r.waiters {
		w()
	}
	clear(r.waiters)
	r.waiters = r.waiters[:0]
	r.next, as.freeRes = as.freeRes, r
}

// AddressSpace is one node's virtual memory. All methods must be called
// from the simulation loop (events or processes).
type AddressSpace struct {
	eng *sim.Engine
	cfg Config
	// pages is a dense page table of values indexed by page number:
	// Alloc hands out addresses from a brk that starts at one page and
	// grows contiguously, so page numbers are small consecutive integers
	// and indexing replaces the map hashing the per-packet ODP checks
	// used to pay. The first touch past its end grows it to the whole
	// reserved span at once. Nothing holds a *page across a call that
	// can grow it: a resolution in flight keeps its page number.
	pages     []page
	brk       Addr
	notifiers []Notifier
	// freeRes is the free list, linked through resolution.next, of
	// completed fault resolutions.
	freeRes *resolution

	// words stores 8-byte values for atomics and small control data.
	words map[Addr]uint64

	// Counters for tests and reporting.
	FaultsResolved uint64
	PagesPinned    uint64

	arenaNext *AddressSpace
}

// asArenaKey is the engine Aux key of the address-space arena. A
// recycled space keeps its page table's storage and its resolution
// records, and its word store keeps its buckets, so trial loops stop
// paying construction allocations.
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
// keeping allocated storage: the page table's backing array, the
// resolution records (with their bound callbacks and waiter arrays),
// the word store's buckets, and the notifier list's backing array.
func (as *AddressSpace) reset(cfg Config) {
	as.cfg = cfg
	as.brk = PageSize
	as.notifiers = as.notifiers[:0]
	as.FaultsResolved = 0
	as.PagesPinned = 0
	clear(as.words)
	// A resolution the last run left in flight lost its engine event to
	// the Reset; it goes back to the free list.
	for _, pg := range as.pages {
		if r := pg.res; r != nil {
			clear(r.waiters)
			r.waiters = r.waiters[:0]
			r.next, as.freeRes = as.freeRes, r
		}
	}
	clear(as.pages)
	as.pages = as.pages[:0]
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

// pageAt returns page p's entry, growing the table to cover both p and
// the whole reserved span when p lies past its end. The pointer is
// valid until the next pageAt.
func (as *AddressSpace) pageAt(p PageNo) *page {
	if p >= PageNo(len(as.pages)) {
		n := int(max(p+1, PageOf(as.brk)))
		if n > cap(as.pages) {
			// Entries past len are zero: make zeroes them, and reset
			// clears every entry a run used.
			grown := make([]page, n, max(n, 2*cap(as.pages)))
			copy(grown, as.pages)
			as.pages = grown
		}
		as.pages = as.pages[:n]
	}
	return &as.pages[p]
}

// State returns the state of page p.
func (as *AddressSpace) State(p PageNo) PageState {
	if p < PageNo(len(as.pages)) {
		return as.pages[p].state
	}
	return Unmapped
}

// Touch synchronously maps every page in [addr, addr+len), modelling the
// application writing to the buffer in advance ("used and touched in
// advance" in the paper's §V-C). It costs no virtual time; use it for
// setup.
func (as *AddressSpace) Touch(addr Addr, length int) {
	first, end := span(addr, length)
	for p := first; p < end; p++ {
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
	first, end := span(addr, length)
	for p := first; p < end; p++ {
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
	first, end := span(addr, length)
	for p := first; p < end; p++ {
		if p >= PageNo(len(as.pages)) || as.pages[p].pins == 0 {
			panic(fmt.Sprintf("hostmem: Unpin of unpinned page %d", p))
		}
		pg := &as.pages[p]
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
	first, end := span(addr, length)
	for p := first; p < end; p++ {
		if as.State(p) != Mapped {
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
		pg.res.waiters = append(pg.res.waiters, done)
		return
	}
	r := as.freeRes
	if r == nil {
		r = &resolution{as: as}
		r.complete = r.finish
	} else {
		as.freeRes, r.next = r.next, nil
	}
	r.p = p
	r.waiters = append(r.waiters, done)
	pg.state, pg.res = Resolving, r
	lat := as.eng.Uniform(as.cfg.FaultResolveMin, as.cfg.FaultResolveMax)
	as.eng.ScheduleAfter(lat, r.complete)
}

// ReadWord returns the 8-byte value at addr (zero if never written).
// Atomic operations and control words use this store; bulk payload data
// is not modelled.
func (as *AddressSpace) ReadWord(addr Addr) uint64 { return as.words[addr] }

// WriteWord stores an 8-byte value at addr.
func (as *AddressSpace) WriteWord(addr Addr, v uint64) { as.words[addr] = v }
