// Package regcache implements the memory-registration management
// strategies the paper positions On-Demand Paging against (§I, §VIII-A):
//
//   - DirectPin — register and deregister around every communication
//     (the naive baseline whose runtime cost motivates everything else);
//   - PinDownCache — Tezuka et al.'s LRU cache of pinned registrations
//     bounded by a pinned-memory budget;
//   - BatchedDereg — Zhou et al.'s deferred deregistration, flushing
//     evictions in batches to amortize the per-deregistration cost;
//   - CopyPath — Frey & Alonso's bounce-buffer scheme: small messages are
//     copied through a preregistered region, large ones pinned directly
//     (they report the crossover around 256 KiB);
//   - ODPOnce — register the whole region once with ODP and never pin
//     (the productivity option whose pitfalls the paper studies).
//
// Each strategy exposes the same Acquire/Release interface so workloads
// and benchmarks can compare runtime cost and pinned-memory footprint.
package regcache

import (
	"fmt"

	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// Costs models the fixed driver-side overheads of (de)registration and
// the copy bandwidth of the bounce path. Mietke et al. analyzed the
// Mellanox stack's registration path; the numbers here reproduce the
// relative magnitudes (registration dominated by pinning for large
// regions, fixed syscall/driver cost for small ones).
type Costs struct {
	RegFixed   sim.Time // ibv_reg_mr fixed cost
	DeregFixed sim.Time // ibv_dereg_mr fixed cost
	CopyGBps   float64  // memcpy bandwidth for the bounce path
}

// DefaultCosts calibrates the Frey & Alonso crossover near 256 KiB.
func DefaultCosts() Costs {
	return Costs{
		RegFixed:   90 * sim.Microsecond,
		DeregFixed: 40 * sim.Microsecond,
		CopyGBps:   2.0,
	}
}

// CopyTime returns the bounce-copy cost for n bytes.
func (c Costs) CopyTime(n int) sim.Time {
	return sim.Time(float64(n) / c.CopyGBps) // GB/s == bytes/ns
}

// Stats counts strategy activity.
type Stats struct {
	Registrations   uint64
	Deregistrations uint64
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	BytesCopied     uint64
}

// Strategy manages registrations for communication buffers. Acquire
// returns the memory region to use for a transfer of [addr, addr+len) and
// a release callback; both may charge virtual time to the calling
// process.
type Strategy interface {
	Name() string
	Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func())
	// PinnedBytes reports the strategy's current pinned footprint.
	PinnedBytes() int
	Stats() Stats
}

// --- DirectPin ---

type directPin struct {
	nic    *rnic.RNIC
	costs  Costs
	stats  Stats
	pinned int
}

// NewDirectPin registers around every communication.
func NewDirectPin(nic *rnic.RNIC, costs Costs) Strategy {
	return &directPin{nic: nic, costs: costs}
}

func (d *directPin) Name() string { return "direct-pin" }

func (d *directPin) Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func()) {
	mr, pinCost := d.nic.RegisterMR(addr, length, false)
	d.stats.Registrations++
	d.pinned += length
	p.Sleep(d.costs.RegFixed + pinCost)
	return mr, func() {
		d.stats.Deregistrations++
		d.pinned -= length
		d.nic.DeregisterMR(mr)
		p.Sleep(d.costs.DeregFixed)
	}
}

func (d *directPin) PinnedBytes() int { return d.pinned }
func (d *directPin) Stats() Stats     { return d.stats }

// --- PinDownCache ---

type cacheEntry struct {
	mr     *rnic.MR
	addr   hostmem.Addr
	length int
	inUse  int
	// LRU links.
	prev, next *cacheEntry
}

type pinDownCache struct {
	nic      *rnic.RNIC
	costs    Costs
	capacity int // pinned-byte budget
	stats    Stats
	pinned   int
	entries  map[hostmem.Addr]*cacheEntry
	// head = most recently used; tail = least recently used.
	head, tail *cacheEntry

	// batch, when > 0, defers deregistrations and flushes them batch at
	// a time (Zhou et al.); deferred entries remain pinned until flush.
	batch    int
	deferred []*cacheEntry
}

// NewPinDownCache creates Tezuka et al.'s LRU pin-down cache with a
// pinned-byte budget.
func NewPinDownCache(nic *rnic.RNIC, costs Costs, capacityBytes int) Strategy {
	if capacityBytes <= 0 {
		panic("regcache: non-positive capacity")
	}
	return &pinDownCache{
		nic: nic, costs: costs, capacity: capacityBytes,
		entries: make(map[hostmem.Addr]*cacheEntry),
	}
}

// NewBatchedDereg creates the pin-down cache with batched deregistration:
// evicted entries are deregistered batch at a time.
func NewBatchedDereg(nic *rnic.RNIC, costs Costs, capacityBytes, batch int) Strategy {
	c := NewPinDownCache(nic, costs, capacityBytes).(*pinDownCache)
	if batch <= 0 {
		panic("regcache: non-positive batch")
	}
	c.batch = batch
	return c
}

func (c *pinDownCache) Name() string {
	if c.batch > 0 {
		return "batched-dereg"
	}
	return "pin-down-cache"
}

func (c *pinDownCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *pinDownCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// evictOne removes the least recently used idle entry; it reports whether
// one was found.
func (c *pinDownCache) evictOne(p *sim.Proc) bool {
	for e := c.tail; e != nil; e = e.prev {
		if e.inUse > 0 {
			continue
		}
		c.unlink(e)
		delete(c.entries, e.addr)
		c.stats.Evictions++
		if c.batch > 0 {
			c.deferred = append(c.deferred, e)
			if len(c.deferred) >= c.batch {
				c.flush(p)
			}
		} else {
			c.dereg(p, e)
		}
		return true
	}
	return false
}

func (c *pinDownCache) dereg(p *sim.Proc, e *cacheEntry) {
	c.nic.DeregisterMR(e.mr)
	c.pinned -= e.length
	c.stats.Deregistrations++
	p.Sleep(c.costs.DeregFixed)
}

// flush deregisters all deferred entries, amortizing the fixed cost: the
// batch pays one fixed cost plus a small per-entry cost.
func (c *pinDownCache) flush(p *sim.Proc) {
	if len(c.deferred) == 0 {
		return
	}
	for _, e := range c.deferred {
		c.nic.DeregisterMR(e.mr)
		c.pinned -= e.length
		c.stats.Deregistrations++
	}
	p.Sleep(c.costs.DeregFixed + sim.Time(len(c.deferred))*2*sim.Microsecond)
	c.deferred = c.deferred[:0]
}

func (c *pinDownCache) Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func()) {
	if e, ok := c.entries[addr]; ok && e.length >= length {
		c.stats.Hits++
		c.unlink(e)
		c.pushFront(e)
		e.inUse++
		return e.mr, func() { e.inUse-- }
	}
	c.stats.Misses++
	// Make room (deferred entries still count as pinned).
	for c.pinned+c.deferredBytes()+length > c.capacity {
		if !c.evictOne(p) {
			break // everything is in use; exceed the budget rather than fail
		}
	}
	mr, pinCost := c.nic.RegisterMR(addr, length, false)
	c.pinned += length
	c.stats.Registrations++
	p.Sleep(c.costs.RegFixed + pinCost)
	e := &cacheEntry{mr: mr, addr: addr, length: length, inUse: 1}
	c.entries[addr] = e
	c.pushFront(e)
	return mr, func() { e.inUse-- }
}

func (c *pinDownCache) deferredBytes() int {
	n := 0
	for _, e := range c.deferred {
		n += e.length
	}
	return n
}

func (c *pinDownCache) PinnedBytes() int { return c.pinned + c.deferredBytes() }
func (c *pinDownCache) Stats() Stats     { return c.stats }

// --- CopyPath ---

type copyPath struct {
	nic       *rnic.RNIC
	costs     Costs
	threshold int
	bounce    *rnic.MR
	bounceSz  int
	direct    Strategy
	stats     Stats
}

// NewCopyPath copies messages below threshold bytes through a
// preregistered bounce buffer and pins larger ones directly (Frey &
// Alonso report ≈256 KiB as the break-even point).
func NewCopyPath(nic *rnic.RNIC, costs Costs, threshold, bounceBytes int) Strategy {
	if bounceBytes < threshold {
		panic("regcache: bounce buffer smaller than threshold")
	}
	addr := nic.AS.Alloc(bounceBytes)
	mr, _ := nic.RegisterMR(addr, bounceBytes, false)
	return &copyPath{
		nic: nic, costs: costs, threshold: threshold,
		bounce: mr, bounceSz: bounceBytes,
		direct: NewDirectPin(nic, costs),
	}
}

func (cp *copyPath) Name() string { return "copy-path" }

func (cp *copyPath) Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func()) {
	if length < cp.threshold {
		cp.stats.Hits++
		cp.stats.BytesCopied += uint64(length)
		p.Sleep(cp.costs.CopyTime(length)) // copy in
		return cp.bounce, func() {
			cp.stats.BytesCopied += uint64(length)
			p.Sleep(cp.costs.CopyTime(length)) // copy out
		}
	}
	cp.stats.Misses++
	return cp.direct.Acquire(p, addr, length)
}

func (cp *copyPath) PinnedBytes() int { return cp.bounceSz + cp.direct.PinnedBytes() }

func (cp *copyPath) Stats() Stats {
	s := cp.stats
	d := cp.direct.Stats()
	s.Registrations += d.Registrations
	s.Deregistrations += d.Deregistrations
	return s
}

// --- ODPOnce ---

type odpOnce struct {
	nic   *rnic.RNIC
	mrs   map[hostmem.Addr]*rnic.MR
	stats Stats
}

// NewODPOnce registers each buffer once on demand, which on an ODP
// device (the default) means no pinning, no footprint, but every first
// access costs a network page fault (and the pitfalls of the paper
// apply).
func NewODPOnce(nic *rnic.RNIC) Strategy {
	return &odpOnce{nic: nic, mrs: make(map[hostmem.Addr]*rnic.MR)}
}

func (o *odpOnce) Name() string { return "odp" }

func (o *odpOnce) Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func()) {
	if mr, ok := o.mrs[addr]; ok && mr.Len >= length {
		o.stats.Hits++
		return mr, func() {}
	}
	o.stats.Misses++
	o.stats.Registrations++
	mr, _ := o.nic.RegisterMR(addr, length, true)
	o.mrs[addr] = mr
	return mr, func() {}
}

func (o *odpOnce) PinnedBytes() int { return 0 }
func (o *odpOnce) Stats() Stats     { return o.stats }

// --- NPROnce ---

type nprOnce struct {
	nic   *rnic.RNIC
	mrs   map[hostmem.Addr]*rnic.MR
	stats Stats
}

// NewNPROnce registers each buffer once through the NP-RDMA shadow
// table: registration is as cheap as ODP, but the translation cost is a
// bounded synchronous driver migration (charged here at acquire time,
// the moment the driver would migrate for a host-initiated transfer)
// instead of a network page fault. The device must be in NPR mode
// (SetMemoryMode).
func NewNPROnce(nic *rnic.RNIC) Strategy {
	if nic.NPR() == nil {
		panic("regcache: NewNPROnce needs an NPR-mode device")
	}
	return &nprOnce{nic: nic, mrs: make(map[hostmem.Addr]*rnic.MR)}
}

func (o *nprOnce) Name() string { return "npr" }

func (o *nprOnce) Acquire(p *sim.Proc, addr hostmem.Addr, length int) (*rnic.MR, func()) {
	mr, ok := o.mrs[addr]
	if ok && mr.Len >= length {
		o.stats.Hits++
	} else {
		o.stats.Misses++
		o.stats.Registrations++
		mr, _ = o.nic.RegisterMR(addr, length, true)
		o.mrs[addr] = mr
	}
	pool := o.nic.NPR()
	p.Sleep(pool.Acquire(addr, length))
	return mr, func() { pool.Release(addr, length) }
}

// PinnedBytes reports the pool's resident bytes: unlike ODP the NP-RDMA
// footprint is not zero, but it is bounded by the pool no matter how
// much is registered.
func (o *nprOnce) PinnedBytes() int { return o.nic.NPR().ResidentBytes() }
func (o *nprOnce) Stats() Stats     { return o.stats }

// --- Workload comparison ---

// WorkloadResult compares one strategy on a registration workload.
type WorkloadResult struct {
	Strategy  string
	Time      sim.Time
	MaxPinned int
	Stats     Stats
}

// String renders one comparison row.
func (w WorkloadResult) String() string {
	return fmt.Sprintf("%-15s time=%-12v maxPinned=%-10d regs=%-6d hits=%-6d evictions=%d",
		w.Strategy, w.Time, w.MaxPinned, w.Stats.Registrations, w.Stats.Hits, w.Stats.Evictions)
}

// RunWorkload replays a buffer-access trace (addresses must be
// pre-allocated in the RNIC's address space) against the strategy and
// measures total virtual time and peak pinned footprint. Each access
// models register→use→release without actual communication, isolating
// the registration cost the way §VIII-A's studies do.
func RunWorkload(eng *sim.Engine, s Strategy, trace []TraceOp) WorkloadResult {
	res := WorkloadResult{Strategy: s.Name()}
	eng.Go("workload", func(p *sim.Proc) {
		start := p.Now()
		for _, op := range trace {
			_, release := s.Acquire(p, op.Addr, op.Len)
			if pinned := s.PinnedBytes(); pinned > res.MaxPinned {
				res.MaxPinned = pinned
			}
			release()
		}
		res.Time = p.Now() - start
	})
	eng.MustRun()
	res.Stats = s.Stats()
	return res
}

// TraceOp is one buffer use in a registration workload.
type TraceOp struct {
	Addr hostmem.Addr
	Len  int
}

// SyntheticTrace builds a hot/cold buffer reuse trace: nBuffers buffers
// of size bytes each, accessed n times with the given hot-set fraction
// absorbing most accesses (the reuse pattern pin-down caches exploit).
func SyntheticTrace(eng *sim.Engine, nic *rnic.RNIC, nBuffers, size, n int, hotFraction float64) []TraceOp {
	addrs := make([]hostmem.Addr, nBuffers)
	for i := range addrs {
		addrs[i] = nic.AS.Alloc(size)
		nic.AS.Touch(addrs[i], size)
	}
	hot := int(float64(nBuffers) * hotFraction)
	if hot < 1 {
		hot = 1
	}
	trace := make([]TraceOp, n)
	for i := range trace {
		var idx int
		if eng.Bernoulli(0.9) {
			idx = eng.Rand().Intn(hot)
		} else {
			idx = eng.Rand().Intn(nBuffers)
		}
		trace[i] = TraceOp{Addr: addrs[idx], Len: size}
	}
	return trace
}
