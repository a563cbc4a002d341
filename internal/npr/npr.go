// Package npr implements the NP-RDMA no-pinning mitigation (Shen et
// al., see PAPERS.md): instead of letting the RNIC take network page
// faults — the mechanism behind both of the paper's pitfalls — the
// driver fronts the address space with a bounded DMA-able memory pool
// and a shadow translation table it updates *synchronously*. An RDMA
// access whose pages are not yet in the pool stalls for the driver-side
// migration time (a 4 KiB copy plus an IOMMU map and a table write,
// microseconds), never for a network page fault (hundreds of
// microseconds through the serial ODP pipeline), and the NIC never
// sees a miss:
//
//   - no RNR NAK on the responder, so no pending windows and no packet
//     damming (§V);
//   - no client-side response discard, so no blind retransmission and
//     no packet flood (§VI);
//   - no per-(QP, page) status updates — the shadow table is per page,
//     so the "update failure of page statuses" starvation cannot occur.
//
// The price is bounded pool memory (cold pages evict under pressure,
// LRU) and a small translation stall on first touch. The counters
// mirror what an NP-RDMA driver would export: npr_pool_bytes,
// npr_migrations, npr_evictions, npr_translation_stalls.
package npr

import (
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// Config tunes the NP-RDMA driver model.
type Config struct {
	// PoolBytes bounds the DMA-able pool (default 2 MiB = 512 frames).
	// The shadow table never maps more than PoolBytes of host memory.
	PoolBytes int
}

// The per-page costs of NP-RDMA's kernel-side translation.
const (
	// MigratePerPage is the cost of pulling one cold page into the pool:
	// a 4 KiB copy, the IOMMU map and the synchronous shadow-table
	// update.
	MigratePerPage = 3 * sim.Microsecond
	// EvictPerPage is the write-back cost of evicting one pool page
	// under pressure.
	EvictPerPage = 2 * sim.Microsecond
)

// DefaultConfig returns the NP-RDMA calibration used throughout the
// mitigation scenarios.
func DefaultConfig() Config {
	return Config{PoolBytes: 2 << 20}
}

// WithDefaults fills zero fields with the default calibration.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.PoolBytes <= 0 {
		c.PoolBytes = d.PoolBytes
	}
	return c
}

// frame is one page's shadow-table entry. Resident frames form an
// intrusive LRU list threaded through the dense table by page number
// (prev is toward the MRU head, next toward the LRU tail); the links
// are only meaningful while resident.
type frame struct {
	resident   bool
	refs       int
	prev, next int32
}

// Pool is one device's NP-RDMA driver state: the bounded DMA-able pool
// and the shadow translation table over the node's address space. All
// methods must be called from the simulation loop.
type Pool struct {
	eng *sim.Engine
	as  *hostmem.AddressSpace
	// capacity in page frames; resident counts frames in use.
	capacity int
	resident int
	// table is the shadow translation table, dense by page number like
	// hostmem's page table and odp's pairTable; head/tail are the LRU
	// list ends (-1 when empty), head most recently used.
	table      []frame
	head, tail int32

	// Counters: live storage behind the telemetry registry.
	Migrations        uint64
	Evictions         uint64
	TranslationStalls uint64

	arenaNext *Pool
}

// poolArenaKey is the engine Aux key of the pool arena. A recycled pool
// has its shadow table zeroed but keeps the table's storage.
const poolArenaKey = "npr.pools"

// New creates an NP-RDMA driver pool over as, taken from the engine's
// arena (see sim.Arena) like every other per-node structure.
func New(as *hostmem.AddressSpace, cfg Config) *Pool {
	eng := as.Engine()
	a := sim.ArenaOn(eng, poolArenaKey, func(pl *Pool) **Pool { return &pl.arenaNext })
	pl := a.Take(eng)
	if pl == nil {
		pl = &Pool{eng: eng}
		a.Add(pl)
	}
	pl.reset(as, cfg)
	return pl
}

// reset returns a (possibly recycled) pool to its just-constructed
// state bound to as, keeping the shadow table's storage.
func (pl *Pool) reset(as *hostmem.AddressSpace, cfg Config) {
	cfg = cfg.WithDefaults()
	pl.as = as
	pl.capacity = cfg.PoolBytes / hostmem.PageSize
	if pl.capacity < 1 {
		pl.capacity = 1
	}
	pl.resident = 0
	pl.head, pl.tail = -1, -1
	for i := range pl.table {
		pl.table[i] = frame{}
	}
	pl.Migrations, pl.Evictions, pl.TranslationStalls = 0, 0, 0
}

// ResidentBytes returns the bytes currently resident in the pool —
// the device's real (and bounded) pinned-memory footprint.
func (pl *Pool) ResidentBytes() int { return pl.resident * hostmem.PageSize }

// metrics is the pool's counter table, with its residency gauge.
var metrics = telemetry.Table[Pool]{
	{Name: telemetry.NprMigrations, Help: "cold pages migrated into the DMA-able pool on demand", Read: func(pl *Pool) float64 { return float64(pl.Migrations) }},
	{Name: telemetry.NprEvictions, Help: "pool pages written back and evicted under pressure", Read: func(pl *Pool) float64 { return float64(pl.Evictions) }},
	{Name: telemetry.NprTranslationStalls, Help: "accesses stalled on a synchronous driver migration", Read: func(pl *Pool) float64 { return float64(pl.TranslationStalls) }},
	{Name: telemetry.NprPoolBytes, Help: "bytes resident in the DMA-able migration pool", Kind: telemetry.KindGauge, Read: func(pl *Pool) float64 { return float64(pl.ResidentBytes()) }},
}

// RegisterMetrics publishes the NP-RDMA counters on reg. The owning
// device calls this once, and only when NPR is enabled, so devices
// without it keep their exact pre-existing metric set.
func (pl *Pool) RegisterMetrics(reg *telemetry.Registry) { telemetry.Register(reg, &metrics, pl) }

// entry grows the shadow table to cover page p and returns its frame.
func (pl *Pool) entry(p hostmem.PageNo) *frame {
	for hostmem.PageNo(len(pl.table)) <= p {
		pl.table = append(pl.table, frame{})
	}
	return &pl.table[p]
}

// Resident reports whether page p is in the pool (its shadow-table
// entry is valid).
func (pl *Pool) Resident(p hostmem.PageNo) bool {
	return p < hostmem.PageNo(len(pl.table)) && pl.table[p].resident
}

// Translated reports whether the whole byte range is currently
// translatable through the shadow table — the invariant the NIC relies
// on: a translation is served only for migrated (resident) pages.
func (pl *Pool) Translated(addr hostmem.Addr, length int) bool {
	if length <= 0 {
		return true
	}
	last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
	for p := hostmem.PageOf(addr); p <= last; p++ {
		if !pl.Resident(p) {
			return false
		}
	}
	return true
}

func (pl *Pool) unlink(p int32) {
	f := &pl.table[p]
	if f.prev >= 0 {
		pl.table[f.prev].next = f.next
	} else {
		pl.head = f.next
	}
	if f.next >= 0 {
		pl.table[f.next].prev = f.prev
	} else {
		pl.tail = f.prev
	}
	f.prev, f.next = -1, -1
}

func (pl *Pool) pushFront(p int32) {
	f := &pl.table[p]
	f.prev, f.next = -1, pl.head
	if pl.head >= 0 {
		pl.table[pl.head].prev = p
	}
	pl.head = p
	if pl.tail < 0 {
		pl.tail = p
	}
}

// evictOne writes back and evicts the least recently used idle frame,
// returning its cost, or ok=false when every resident frame is
// referenced by an in-flight request.
func (pl *Pool) evictOne() (sim.Time, bool) {
	for p := pl.tail; p >= 0; p = pl.table[p].prev {
		if pl.table[p].refs > 0 {
			continue
		}
		pl.unlink(p)
		pl.table[p].resident = false
		pl.resident--
		pl.Evictions++
		return EvictPerPage, true
	}
	return 0, false
}

// EnsureRange migrates every non-resident page of [addr, addr+length)
// into the pool, evicting LRU frames under pressure, and returns the
// synchronous driver stall the access must absorb. Resident pages are
// refreshed in the LRU order and cost nothing — the steady-state
// (warm) path stays allocation- and stall-free. When every frame is
// referenced (the pool is exhausted by in-flight requests), the
// overflow pages are streamed through a reserved bounce slot instead:
// they pay the migration cost but do not become resident, so the pool
// never exceeds its bound.
func (pl *Pool) EnsureRange(addr hostmem.Addr, length int) sim.Time {
	if length <= 0 {
		return 0
	}
	var stall sim.Time
	last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
	for p := hostmem.PageOf(addr); p <= last; p++ {
		f := pl.entry(p)
		if f.resident {
			pl.unlink(int32(p))
			pl.pushFront(int32(p))
			continue
		}
		insert := true
		if pl.resident >= pl.capacity {
			cost, ok := pl.evictOne()
			stall += cost
			insert = ok
		}
		// The host page itself becomes resident in pool memory; the
		// kernel side sees a plain touched page (no fault, no pin).
		pl.as.Touch(hostmem.PageBase(p), hostmem.PageSize)
		stall += MigratePerPage
		pl.Migrations++
		if insert {
			f.resident = true
			pl.resident++
			pl.pushFront(int32(p))
		}
	}
	if stall > 0 {
		pl.TranslationStalls++
	}
	return stall
}

// Acquire is EnsureRange plus a reference on every resident page of the
// range, protecting in-flight requests' frames from eviction until the
// matching Release. The driver takes these around each WR's lifetime,
// which is why NPR READ responses are never discarded — the mitigation
// for the client-side pitfall.
func (pl *Pool) Acquire(addr hostmem.Addr, length int) sim.Time {
	stall := pl.EnsureRange(addr, length)
	if length > 0 {
		last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
		for p := hostmem.PageOf(addr); p <= last; p++ {
			if f := pl.entry(p); f.resident {
				f.refs++
			}
		}
	}
	return stall
}

// Release drops Acquire's references. Pages that were streamed (never
// resident) carry no reference and are skipped.
func (pl *Pool) Release(addr hostmem.Addr, length int) {
	if length <= 0 {
		return
	}
	last := hostmem.PageOf(addr + hostmem.Addr(length) - 1)
	for p := hostmem.PageOf(addr); p <= last; p++ {
		if p < hostmem.PageNo(len(pl.table)) {
			if f := &pl.table[p]; f.refs > 0 {
				f.refs--
			}
		}
	}
}
