package packet

import "odpsim/internal/sim"

// Pool recycles Packet storage through the datapath, the way a DPDK-style
// mempool recycles mbufs: senders Get a cleared packet, the fabric Puts it
// back after final delivery or drop, and steady-state traffic allocates
// nothing. Like the sim engine's event free list, recycled packets are
// generation-counted: every Put bumps the packet's generation, so tests
// can assert that storage really was recycled, and a double Put (which
// would hand the same storage to two owners) panics immediately.
//
// A Pool belongs to one simulation engine and, like the engine's event
// storage, is meant to outlive individual runs: fabrics built on a
// Reset-reused engine share one pool, so repeated trials stop allocating
// packets once the first trial has warmed the free list. See DESIGN.md §8
// for the ownership contract.
//
// Fresh packets are carved from blocks (see sim.Blocks), so a cold run
// pays one allocation per block, not one per packet in flight.
type Pool struct {
	free   []*Packet
	blocks sim.Blocks[Packet]

	// Counters. Gets/Puts are the pool's conservation ledger: after a
	// drained simulation every in-flight packet has been returned, so
	// Gets - Puts counts foreign packets (constructed outside the pool)
	// that were Put minus pooled packets leaked — zero when both-side
	// discipline holds. Allocs counts Gets that found the free list
	// empty and took fresh storage: the packets the pool created.
	Gets   uint64
	Puts   uint64
	Allocs uint64
}

// packetBlock caps a block of fresh packets at 48: 8,064 bytes, which
// fills one 8 KiB size class.
const packetBlock = 48

// NewPool creates an empty pool.
func NewPool() *Pool {
	return &Pool{blocks: sim.Blocks[Packet]{Make: makePackets, Max: packetBlock}}
}

// makePackets allocates a block of packets. It is a named function, not
// a literal in NewPool, so heap profiles charge the block to this
// package even where NewPool is inlined into its caller.
func makePackets(n int) []Packet { return make([]Packet, n) }

// Get returns a zeroed packet, recycling free storage when available. The
// caller owns the packet until it hands it to the fabric.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	n := len(pl.free)
	if n == 0 {
		pl.Allocs++
		return pl.blocks.New()
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	gen := p.gen
	*p = Packet{}
	p.gen = gen
	return p
}

// Put returns a packet to the free list. Putting a packet that is already
// free panics: a double Put would hand the same storage to two owners and
// silently corrupt later traffic. Packets constructed outside the pool may
// be Put (they simply join the free list), which lets the fabric reclaim
// every packet it delivers without caring where it came from.
func (pl *Pool) Put(p *Packet) {
	if p.pooled {
		panic("packet: double Put — packet is already in the free list")
	}
	p.pooled = true
	p.gen++
	pl.Puts++
	pl.free = append(pl.free, p)
}

// FreeLen returns the number of packets currently in the free list.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// Balance returns Puts - Gets. For a drained simulation whose senders all
// draw from the pool it is the number of foreign packets absorbed (zero
// when every sender used Get); a negative balance means pooled packets
// leaked without being returned.
func (pl *Pool) Balance() int64 { return int64(pl.Puts) - int64(pl.Gets) }

// Generation returns how many times the packet's storage has been
// recycled through a pool. Tests use it to assert recycling happened.
func (p *Packet) Generation() uint64 { return p.gen }
