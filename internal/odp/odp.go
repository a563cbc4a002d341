// Package odp models the On-Demand Paging engine at the RNIC/driver
// boundary. The paper's high-level conclusion is that network page fault
// handling is hard precisely because the RNIC has limited memory and
// functionality; we model that limitation as a *single serial pipeline*
// through which all ODP work flows, in arrival (FIFO) order:
//
//   - spurious items: datapath handling of a retransmitted READ response
//     that was discarded because the (QP, page) status is still stale —
//     cheap per item, but issued on every retransmission round by every
//     stale pair (client-side only: the responder is stateless and NAKs
//     for free, §VI-C);
//   - resolve items: host page-fault resolution — one serial item per
//     faulted page, costing the kernel's 250–500 µs;
//   - update items: propagating a resolved page's status into one QP's
//     hardware context — the step whose delay the paper names "update
//     failure of page statuses" (§VI-B). A page's update batch is
//     enqueued newest-registrant-first, which reproduces Figure 11a's
//     observation that the *first* ~30 operations stay unfinished the
//     longest.
//
// With many QPs the spurious traffic lands in the queue ahead of later
// pages' resolves and updates, delaying them, which provokes further
// retransmission rounds — the feedback loop of packet flood.
//
// Status tables are dense slices indexed by (QP number, page number) —
// both small consecutive integers — so the per-packet Access check costs
// array indexing instead of map hashing. Maps remain only on cold sparse
// paths (pages with a resolution in flight).
package odp

import (
	"odpsim/internal/fifo"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// Key identifies a per-QP view of one page's translation status.
type Key struct {
	QP   uint32
	Page hostmem.PageNo
}

// Pipeline and retransmission timings every device shares.
const (
	// SpuriousCost is the pipeline time consumed by one discarded
	// retransmitted response on a stale (QP, page) pair.
	SpuriousCost = 25 * sim.Microsecond
	// RetransBase is the requester-side retransmission period after a
	// client-side ODP drop (≈0.5 ms observed in Figure 1).
	RetransBase = 500 * sim.Microsecond
)

// Config tunes the ODP engine. Defaults are calibrated against the
// paper's ConnectX-4 measurements (see DESIGN.md §4).
type Config struct {
	// QPUpdateCost is the pipeline time to install a resolved page's
	// status into one QP context (Figure 11a: ≈128 updates spread over
	// ≈5 ms).
	QPUpdateCost sim.Time
	// UpdatesFIFO switches a page's update batch to oldest-first order;
	// the default (false) is newest-first, which matches Figure 11a.
	// Exposed for ablation.
	UpdatesFIFO bool
	// SpuriousFree disables the pipeline cost of spurious accesses.
	// Exposed for ablation: with it set, packet flood largely vanishes.
	SpuriousFree bool
}

// DefaultConfig returns the ConnectX-4 calibration.
func DefaultConfig() Config {
	return Config{
		QPUpdateCost: 40 * sim.Microsecond,
	}
}

type itemKind uint8

const (
	kindSpurious itemKind = iota
	kindResolve
	kindUpdate
)

// workItem is one pipeline item: a spurious access or a status update
// for the (qp, page) pair, or the host resolution of page (qp unused).
type workItem struct {
	qp   uint32
	kind itemKind
	page hostmem.PageNo
}

// pairTable is a dense (QP, page) → bool table: rows indexed by QP
// number, each row a bitset over page numbers. QP numbers and page
// numbers are both small consecutive integers (the RNIC assigns QPNs
// from 1, the address space assigns pages from 1), so the table stays
// compact. get on an entry that was never set is false without
// allocating; set grows rows and columns on demand.
//
// Row words are carved from a rowStore, not allocated one slice per QP,
// so a table of N rows costs its row index's doublings and its share of
// the store's blocks. A row first set at page p takes 2*(p/64+1) words;
// a row that outgrows its words moves to fresh ones, twice as wide as
// it then needs, and the words it leaves stay zero, unused. A recycled
// table keeps its layout (zero), so only its first run pays for moves.
type pairTable struct {
	rows  []pairRow
	store *rowStore // the engine's (New)
}

// pairRow locates a row in its store: blocks[blk][off : off+n].
type pairRow struct{ blk, off, n uint32 }

// rowStore carves row words for the pair tables of every ODP engine on
// one sim engine (its scratch holds it), so a device with few pairs
// shares blocks with the others instead of leaving a block tail of its
// own. The first block holds rowFirst words and each later one as many
// as all before it, up to rowBlock; a row wider than that gets a block
// of its own width. Blocks survive Reset with the tables' rows in them.
type rowStore struct {
	blocks [][]uint64
	used   int // words carved from the last block
	total  int // words in all blocks
}

// rowFirst is a store's first block, 16 words (128 bytes); rowBlock caps
// a block at 512 words, 4 KiB.
const (
	rowFirst = 16
	rowBlock = 512
)

// carve returns n zeroed words.
func (s *rowStore) carve(n int) pairRow {
	last := len(s.blocks) - 1
	if last < 0 || s.used+n > len(s.blocks[last]) {
		size := max(n, min(max(s.total, rowFirst), rowBlock))
		s.blocks = append(s.blocks, make([]uint64, size))
		s.total += size
		last, s.used = last+1, 0
	}
	r := pairRow{blk: uint32(last), off: uint32(s.used), n: uint32(n)}
	s.used += n
	return r
}

func (t *pairTable) get(qp uint32, p hostmem.PageNo) bool {
	if int(qp) < len(t.rows) {
		if r := t.rows[qp]; p>>6 < hostmem.PageNo(r.n) {
			return t.store.blocks[r.blk][r.off+uint32(p>>6)]&(1<<(p&63)) != 0
		}
	}
	return false
}

func (t *pairTable) set(qp uint32, p hostmem.PageNo) {
	t.grow(qp, p)[p>>6] |= 1 << (p & 63)
}

// grow extends the table to cover (qp, p) without setting it and returns
// qp's row.
func (t *pairTable) grow(qp uint32, p hostmem.PageNo) []uint64 {
	if w := int(p >> 6); w >= t.width(qp) {
		t.widen(qp, 2*(w+1))
	}
	return t.row(t.rows[qp])
}

func (t *pairTable) row(r pairRow) []uint64 { return t.store.blocks[r.blk][r.off : r.off+r.n] }

// width is how many words qp's row holds, 0 for a row never grown.
func (t *pairTable) width(qp uint32) int {
	if int(qp) < len(t.rows) {
		return int(t.rows[qp].n)
	}
	return 0
}

// widen gives qp's row n words, more than it holds: it adds rows up to
// qp and moves qp's row, its bits kept, to n words carved from the store.
func (t *pairTable) widen(qp uint32, n int) {
	if int(qp) >= len(t.rows) {
		if int(qp) >= cap(t.rows) {
			rows := make([]pairRow, int(qp)+1, 2*(int(qp)+1))
			copy(rows, t.rows)
			t.rows = rows
		} else {
			t.rows = t.rows[:int(qp)+1]
		}
	}
	r := &t.rows[qp]
	moved := t.store.carve(n)
	old := t.row(*r)
	copy(t.row(moved), old)
	clear(old)
	*r = moved
}

// cover grows t to o's shape, so every pair o can hold fits in t
// without allocating.
func (t *pairTable) cover(o *pairTable) {
	for qp, r := range o.rows {
		if int(r.n) > t.width(uint32(qp)) {
			t.widen(uint32(qp), int(r.n))
		}
	}
}

// clear resets an entry without growing the table; it reports whether
// the entry was set.
func (t *pairTable) clear(qp uint32, p hostmem.PageNo) bool {
	if int(qp) < len(t.rows) {
		if r := t.rows[qp]; p>>6 < hostmem.PageNo(r.n) {
			w := &t.store.blocks[r.blk][r.off+uint32(p>>6)]
			bit := uint64(1) << (p & 63)
			was := *w&bit != 0
			*w &^= bit
			return was
		}
	}
	return false
}

// zero resets every entry, keeping the table's storage.
func (t *pairTable) zero() {
	for _, r := range t.rows {
		clear(t.row(r))
	}
}

// Engine is one RNIC's ODP machinery.
type Engine struct {
	eng *sim.Engine
	as  *hostmem.AddressSpace
	cfg Config

	// visible tracks which (QP, page) translations the QP's hardware
	// context can currently use.
	visible pairTable
	// pending marks pairs that are faulted but not yet visible; stale is
	// their count (the packet-flood load signal).
	pending pairTable
	stale   int
	// interested lists pairs awaiting a page's host resolution — sparse
	// (only pages with a resolve queued or in flight), so it stays a
	// map. A resolved page's entry is deleted and its list, emptied,
	// goes to spareLists for the next faulting page. A page with no
	// spare list takes a one-pair array carved from the scratch's
	// keyStore: most pages have one registrant, and a burst of faults
	// then allocates by block, not by page. A full list moves to an
	// array twice as long carved there too, and the array it leaves
	// goes to spareLists.
	interested map[hostmem.PageNo][]Key
	spareLists [][]Key
	keys       *keyStore // the scratch's (New)

	busy  bool
	queue fifo.Queue[workItem]
	// queuedSpurious coalesces spurious work per stale pair: a pair
	// whose discard is already queued contributes no further pipeline
	// work until it is serviced (the microcode batches re-discards),
	// which bounds the queue at one item per stale pair.
	queuedSpurious pairTable

	// The pipeline is strictly serial — one item in flight — so its
	// completion callbacks are allocated once, on the engine's first
	// fault or spurious access (buildPipeline), and parameterized via
	// curKey/curPage, instead of capturing a fresh closure per item. An
	// engine that never faults (a device whose memory is pinned) builds
	// none of them.
	finishFn  func()
	updateFn  func()
	resolveFn func()
	curKey    Key
	curPage   hostmem.PageNo
	// notifierFn is likewise allocated once per Engine (which outlives
	// trials via the engine-generation pool).
	notifierFn hostmem.Notifier

	// Counters. The fields are the live storage behind the telemetry
	// registry (see RegisterMetrics); reading them directly and reading
	// the registry always agree.
	Faults        uint64 // page-level faults initiated
	PairFaults    uint64 // (QP,page) pair faults registered
	Updates       uint64 // status updates completed
	SpuriousTotal uint64 // spurious accesses recorded
	Invalidations uint64 // (QP,page) translations flushed by the notifier
	Prefetches    uint64 // (QP,page) pairs prefetched via AdviseMR

	arenaNext *Engine
}

// scratchKey is the engine Aux key of the ODP scratch: the ODP-engine
// arena and the row store every engine's pair tables carve from. A
// recycled ODP engine has its status tables zeroed but keeps their
// storage and its one-time closures.
const scratchKey = "odp.scratch"

type scratch struct {
	engines sim.Arena[Engine]
	rows    rowStore
	keys    keyStore
}

// keyStore carves the registrant arrays of every ODP engine on one sim
// engine, so a burst of faults takes its one-pair first arrays, and a
// page with many registrants its longer ones, by block instead of one
// allocation per page or per doubling. Blocks grow like rowStore's,
// from keyFirst keys up to keyBlock; an array longer than that gets a
// block of its own length. A block's uncarved tail is dropped when the
// next one starts.
type keyStore struct {
	block []Key // the current block's uncarved tail
	total int   // keys in all blocks
}

// keyFirst is a key store's first block, 16 keys (256 bytes); keyBlock
// caps a block at 512 keys, 8 KiB.
const (
	keyFirst = 16
	keyBlock = 512
)

// carve returns an empty array of capacity n.
func (s *keyStore) carve(n int) []Key {
	if len(s.block) < n {
		size := max(n, min(max(s.total, keyFirst), keyBlock))
		s.block = make([]Key, size)
		s.total += size
	}
	k := s.block[:0:n]
	s.block = s.block[n:]
	return k
}

func scratchFor(eng *sim.Engine) *scratch {
	s, _ := eng.Aux(scratchKey).(*scratch)
	if s == nil {
		s = &scratch{}
		s.engines.Link = func(e *Engine) **Engine { return &e.arenaNext }
		eng.SetAux(scratchKey, s)
	}
	return s
}

// New creates an ODP engine bound to an address space, taking it from
// the sim engine's arena (see sim.Arena). It registers an MMU notifier
// so kernel page reclaim invalidates device translations.
func New(as *hostmem.AddressSpace, cfg Config) *Engine {
	eng := as.Engine()
	s := scratchFor(eng)
	if e := s.engines.Take(eng); e != nil {
		e.reset(as, cfg)
		return e
	}
	e := &Engine{eng: eng, as: as, cfg: cfg}
	e.visible.store, e.pending.store, e.queuedSpurious.store = &s.rows, &s.rows, &s.rows
	e.keys = &s.keys
	s.engines.Add(e)
	e.notifierFn = e.invalidate
	as.RegisterNotifier(e.notifierFn)
	return e
}

// buildPipeline builds the pipeline's callbacks and registrant map, on
// the engine's first fault or spurious access; a recycled engine keeps
// them.
func (e *Engine) buildPipeline() {
	e.interested = make(map[hostmem.PageNo][]Key)
	e.finishFn = func() {
		e.busy = false
		e.kick()
	}
	e.updateFn = func() {
		k := e.curKey
		e.visible.set(k.QP, k.Page)
		e.pending.clear(k.QP, k.Page)
		e.stale--
		e.Updates++
		e.busy = false
		e.kick()
	}
	e.resolveFn = func() {
		// Host resolution finished; queue this page's per-QP status
		// updates as one batch, newest registrant first (the order
		// Figure 11a exposes).
		p := e.curPage
		pairs := e.interested[p]
		delete(e.interested, p)
		if !e.cfg.UpdatesFIFO {
			for i, j := 0, len(pairs)-1; i < j; i, j = i+1, j-1 {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
		}
		for _, k := range pairs {
			e.queue.Push(workItem{kind: kindUpdate, qp: k.QP, page: k.Page})
		}
		e.spareLists = append(e.spareLists, pairs[:0])
		e.busy = false
		e.kick()
	}
}

// reset returns a recycled engine to its just-constructed state bound to
// as (which may differ from the previous trial's), keeping the status
// tables' storage and the pre-built pipeline callbacks.
func (e *Engine) reset(as *hostmem.AddressSpace, cfg Config) {
	e.as = as
	e.cfg = cfg
	e.visible.zero()
	e.pending.zero()
	e.queuedSpurious.zero()
	e.stale = 0
	// Spurious re-accesses only follow faults, so queuedSpurious takes
	// pending's shape here: a recycled engine is full-sized in its first
	// warm trial, not in whichever later trial first sees spurious
	// traffic.
	e.queuedSpurious.cover(&e.pending)
	// Keep the registrant lists' backing arrays for the next run.
	for _, v := range e.interested {
		e.spareLists = append(e.spareLists, v[:0])
	}
	clear(e.interested)
	e.busy = false
	e.queue.Clear()
	e.curKey = Key{}
	e.curPage = 0
	e.Faults, e.PairFaults, e.Updates = 0, 0, 0
	e.SpuriousTotal, e.Invalidations, e.Prefetches = 0, 0, 0
	as.RegisterNotifier(e.notifierFn)
}

// metrics is the engine's counter table under the mlx5 ODP vocabulary,
// with its load gauges.
var metrics = telemetry.Table[Engine]{
	{Name: telemetry.OdpPageFaults, Help: "page-level network page faults entering host resolution", Read: func(e *Engine) float64 { return float64(e.Faults) }},
	{Name: telemetry.OdpPairFaults, Help: "(QP,page) pair faults registered with the ODP pipeline", Read: func(e *Engine) float64 { return float64(e.PairFaults) }},
	{Name: telemetry.OdpStatusUpdates, Help: "per-QP page-status updates completed", Read: func(e *Engine) float64 { return float64(e.Updates) }},
	{Name: telemetry.OdpSpuriousAccesses, Help: "discarded retransmitted accesses on still-stale pairs", Read: func(e *Engine) float64 { return float64(e.SpuriousTotal) }},
	{Name: telemetry.OdpInvalidations, Help: "(QP,page) translations flushed by MMU notifier invalidations", Read: func(e *Engine) float64 { return float64(e.Invalidations) }},
	{Name: telemetry.OdpPrefetches, Help: "(QP,page) pairs prefetched via ibv_advise_mr", Read: func(e *Engine) float64 { return float64(e.Prefetches) }},
	{Name: telemetry.OdpStalePairs, Help: "(QP,page) pairs faulted but not yet visible", Kind: telemetry.KindGauge, Read: func(e *Engine) float64 { return float64(e.stale) }},
	{Name: telemetry.OdpPipelineDepth, Help: "items queued in the serial ODP pipeline", Kind: telemetry.KindGauge, Read: func(e *Engine) float64 { return float64(e.queue.Len()) }},
}

// RegisterMetrics publishes the engine's counters and load gauges on reg.
// The owning device calls this once with its per-device registry.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) { telemetry.Register(reg, &metrics, e) }

// StaleCount returns the number of (QP, page) pairs that have faulted but
// whose status update has not yet completed.
func (e *Engine) StaleCount() int { return e.stale }

// QueueLen returns the number of queued pipeline items (for tests and
// load inspection).
func (e *Engine) QueueLen() int { return e.queue.Len() }

// RetransInterval returns the requester retransmission period after a
// client-side ODP drop: RetransBase, whatever the load.
func (e *Engine) RetransInterval() sim.Time { return RetransBase }

// Visible reports whether qp's context can translate page.
func (e *Engine) Visible(qp uint32, page hostmem.PageNo) bool {
	return e.visible.get(qp, page)
}

// Access reports whether qp can translate the whole byte range — i.e.
// whether an RDMA access proceeds without a network page fault. This is
// the per-packet check, so it iterates the page range directly instead
// of materializing it.
func (e *Engine) Access(qp uint32, addr hostmem.Addr, length int) bool {
	if length <= 0 {
		return true
	}
	last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
	for p := hostmem.PageOf(addr); p <= last; p++ {
		if !e.visible.get(qp, p) {
			return false
		}
	}
	return true
}

// Pending reports whether any page of the range already has a fault in
// flight for qp.
func (e *Engine) Pending(qp uint32, addr hostmem.Addr, length int) bool {
	if length <= 0 {
		return false
	}
	last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
	for p := hostmem.PageOf(addr); p <= last; p++ {
		if e.pending.get(qp, p) {
			return true
		}
	}
	return false
}

// Fault registers a network page fault by qp on every non-visible page of
// the range and starts the pipeline. Safe to call repeatedly; pairs
// already pending are not re-registered.
func (e *Engine) Fault(qp uint32, addr hostmem.Addr, length int) {
	if e.finishFn == nil {
		e.buildPipeline()
	}
	if length > 0 {
		last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
		for p := hostmem.PageOf(addr); p <= last; p++ {
			if e.visible.get(qp, p) || e.pending.get(qp, p) {
				continue
			}
			e.pending.set(qp, p)
			e.stale++
			e.PairFaults++
			switch e.as.State(p) {
			case hostmem.Mapped, hostmem.Pinned:
				// Host side is fine; only this QP's status needs updating.
				e.queue.Push(workItem{kind: kindUpdate, qp: qp, page: p})
			default:
				pairs, ok := e.interested[p]
				if !ok {
					e.queue.Push(workItem{kind: kindResolve, page: p})
					e.Faults++
					if n := len(e.spareLists); n > 0 {
						pairs = e.spareLists[n-1]
						e.spareLists = e.spareLists[:n-1]
					} else {
						pairs = e.keys.carve(1)
					}
				} else if len(pairs) == cap(pairs) {
					grown := append(e.keys.carve(2*len(pairs)), pairs...)
					e.spareLists = append(e.spareLists, pairs[:0])
					pairs = grown
				}
				e.interested[p] = append(pairs, Key{qp, p})
			}
		}
	}
	e.kick()
}

// Prefetch pre-faults the range into qp's context on behalf of
// ibv_advise_mr(IBV_ADVISE_MR_ADVICE_PREFETCH). It runs the ordinary
// fault path — the serial pipeline still pays for it — but counts
// separately, the way the driver's num_prefetch does.
func (e *Engine) Prefetch(qp uint32, addr hostmem.Addr, length int) {
	if length > 0 {
		last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
		for p := hostmem.PageOf(addr); p <= last; p++ {
			if !e.visible.get(qp, p) && !e.pending.get(qp, p) {
				e.Prefetches++
			}
		}
	}
	e.Fault(qp, addr, length)
}

// Spurious records a discarded retransmitted access on a still-stale
// pair. It consumes pipeline time, delaying resolves and updates queued
// behind it — the packet-flood feedback loop.
func (e *Engine) Spurious(qp uint32, addr hostmem.Addr, length int) {
	e.SpuriousTotal++
	if e.cfg.SpuriousFree {
		return
	}
	p := hostmem.PageOf(addr)
	if e.queuedSpurious.get(qp, p) {
		return
	}
	e.queuedSpurious.set(qp, p)
	if e.finishFn == nil {
		e.buildPipeline()
	}
	e.queue.Push(workItem{kind: kindSpurious, qp: qp, page: p})
	e.kick()
}

// invalidate flushes device translations for reclaimed pages (all QPs).
func (e *Engine) invalidate(inv hostmem.Invalidation) {
	for _, p := range inv.Pages {
		for qp := range e.visible.rows {
			if e.visible.clear(uint32(qp), p) {
				e.Invalidations++
			}
		}
	}
}

// kick advances the serial pipeline if it is idle.
func (e *Engine) kick() {
	if e.busy || e.queue.Len() == 0 {
		return
	}
	it := e.queue.Pop()
	e.busy = true
	switch it.kind {
	case kindSpurious:
		e.queuedSpurious.clear(it.qp, it.page)
		e.eng.ScheduleAfter(e.eng.Jitter(SpuriousCost, 0.1), e.finishFn)
	case kindResolve:
		e.curPage = it.page
		e.as.ResolveFault(it.page, e.resolveFn)
	case kindUpdate:
		e.curKey = Key{it.qp, it.page}
		e.eng.ScheduleAfter(e.eng.Jitter(e.cfg.QPUpdateCost, 0.1), e.updateFn)
	}
}
