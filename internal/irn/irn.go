// Package irn implements the protocol core of an IRN-style selective
// repeat RC transport ("Revisiting Network Support for RDMA", Mittal et
// al.): selective acknowledgement via a cumulative ACK plus a reception
// bitmap, a bounded responder-side reorder buffer that lets packets land
// out of order while execution stays in ePSN order, and BDP-bounded
// injection so the sender never relies on PFC backpressure. The rnic
// layer owns queue pairs, completion queues and memory; this package
// owns the per-QP transport state machines and their arena.
package irn

import (
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// Window is the reorder window in PSNs: the responder accepts arrivals
// up to Window-1 ahead of ePSN, and the requester keeps its outstanding
// PSN span below it. 64 matches the SACK bitmap width.
const Window = 64

// BaseRTT is the unloaded round-trip time the injection cap is sized
// for (line rate × BaseRTT): a few switch hops of propagation plus MTU
// serialization, in the regime of the clusters the paper measures.
const BaseRTT = 6 * sim.Microsecond

// Disposition classifies an arriving request PSN against the reorder
// buffer.
type Disposition int

// Arrival dispositions.
const (
	// InOrder: psn == ePSN; execute now, then sweep the buffer.
	InOrder Disposition = iota
	// Duplicate: already received (below ePSN or stashed); re-ACK only.
	Duplicate
	// OutOfOrder: lands inside the window above ePSN; stash and SACK.
	OutOfOrder
	// BeyondWindow: past the reorder window; drop (a conforming
	// requester's BDP/span cap keeps this from happening).
	BeyondWindow
)

// ReorderBuffer is the responder-side bounded reorder buffer. Bit i of
// mask means PSN ePSN+i has been received and stashed (bit 0 is never
// set: an in-order arrival executes immediately and a head that faults
// is dropped and NAKed, not stashed). Stashed packets are stored by
// value — the wire packet goes back to its pool at the end of the
// receive callback, per the §8 ownership contract.
type ReorderBuffer struct {
	epsn  uint32
	mask  uint64
	slots [Window]packet.Packet
}

// Init points the empty buffer at the connection's starting ePSN. It
// also zeroes the slots, so a buffer recycled through the State arena
// keeps no previous connection's packets.
func (rb *ReorderBuffer) Init(epsn uint32) {
	*rb = ReorderBuffer{epsn: epsn}
}

// EPSN returns the next PSN the responder will execute.
func (rb *ReorderBuffer) EPSN() uint32 { return rb.epsn }

// Buffered returns how many packets are stashed out of order.
func (rb *ReorderBuffer) Buffered() int {
	n := 0
	for m := rb.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Classify places an arriving PSN relative to ePSN and the window.
func (rb *ReorderBuffer) Classify(psn uint32) Disposition {
	d := packet.PSNDiff(psn, rb.epsn)
	switch {
	case d == 0:
		return InOrder
	case d < 0:
		return Duplicate
	case d < Window:
		if rb.mask&(1<<uint(d)) != 0 {
			return Duplicate
		}
		return OutOfOrder
	default:
		return BeyondWindow
	}
}

// Stash copies an out-of-order packet into its slot. Call only after
// Classify returned OutOfOrder.
func (rb *ReorderBuffer) Stash(pkt *packet.Packet) {
	d := packet.PSNDiff(pkt.PSN, rb.epsn)
	rb.mask |= 1 << uint(d)
	rb.slots[pkt.PSN%Window] = *pkt
}

// Advance moves ePSN past n executed PSNs (n > 1 for multi-PSN READs).
func (rb *ReorderBuffer) Advance(n int) {
	rb.epsn = packet.PSNAdd(rb.epsn, n)
	if n >= Window {
		rb.mask = 0
	} else {
		rb.mask >>= uint(n)
	}
}

// Head returns the stashed packet now at ePSN, if the gap just filled.
// The pointer aliases slot storage: the caller must finish executing it
// (and call Advance) before the next Stash.
func (rb *ReorderBuffer) Head() (*packet.Packet, bool) {
	if rb.mask&1 == 0 {
		return nil, false
	}
	return &rb.slots[rb.epsn%Window], true
}

// DropHead discards the stashed packet at ePSN without executing it
// (the per-packet RNR NAK path: the requester will retransmit it).
func (rb *ReorderBuffer) DropHead() { rb.mask &^= 1 }

// Sack returns the wire SACK block: base is the first missing PSN
// (ePSN) and bit i of the bitmap means PSN base+i was received out of
// order (bit 0 is always clear).
func (rb *ReorderBuffer) Sack() (base uint32, bitmap uint64) {
	return rb.epsn, rb.mask
}

// TxAccount is the requester-side injection governor: it tracks
// outstanding wire bytes against the BDP cap and the outstanding PSN
// span against the reorder window. Bytes are recorded per PSN so
// cumulative ACKs and selective completions free exactly what a packet
// charged.
type TxAccount struct {
	bdp   int
	bytes int
	inUse [Window]int32 // outstanding bytes charged per PSN%Window slot
	base  uint32        // oldest un-completed PSN
	next  uint32        // next PSN to be assigned
}

// Init arms the account with the BDP cap and the connection's first PSN.
func (tx *TxAccount) Init(bdpBytes int, firstPSN uint32) {
	tx.bdp = bdpBytes
	tx.bytes = 0
	tx.base = firstPSN
	tx.next = firstPSN
	for i := range tx.inUse {
		tx.inUse[i] = 0
	}
}

// Outstanding returns the bytes currently charged against the cap.
func (tx *TxAccount) Outstanding() int { return tx.bytes }

// CanSend reports whether a message spanning npsn PSNs and costing
// bytes on the wire fits under both the BDP cap and the window span.
// The first message is always admitted so a cap smaller than one MTU
// cannot deadlock the QP.
func (tx *TxAccount) CanSend(bytes, npsn int) bool {
	if packet.PSNDiff(packet.PSNAdd(tx.next, npsn), tx.base) > Window {
		return false
	}
	if tx.bytes > 0 && tx.bytes+bytes > tx.bdp {
		return false
	}
	return true
}

// OnSend charges a message occupying [psn, psn+npsn) for bytes. The
// charge lands on the first PSN (the wire packet; for READs the span
// reserves response PSNs that carry no charge of their own).
func (tx *TxAccount) OnSend(psn uint32, npsn, bytes int) {
	tx.inUse[psn%Window] += int32(bytes)
	tx.bytes += bytes
	if end := packet.PSNAdd(psn, npsn); packet.PSNLess(tx.next, end) {
		tx.next = end
	}
}

// Complete releases every charge in [base, upto) and advances base.
// Call when a request's span is fully acknowledged.
func (tx *TxAccount) Complete(upto uint32) {
	for packet.PSNLess(tx.base, upto) {
		tx.bytes -= int(tx.inUse[tx.base%Window])
		tx.inUse[tx.base%Window] = 0
		tx.base = packet.PSNAdd(tx.base, 1)
	}
	if tx.bytes < 0 {
		tx.bytes = 0
	}
}

// State bundles one QP's transport machines. Instances come from the
// engine's arena (StateFor) so trial loops that rebuild a cluster on a
// Reset engine reuse the buffers.
type State struct {
	RB ReorderBuffer
	TX TxAccount

	arenaNext *State
}

const stateArenaKey = "irn.states"

// StateFor takes a per-QP State from the engine's arena (see sim.Arena),
// still holding what its previous run left.
func StateFor(eng *sim.Engine) *State {
	a := sim.ArenaOn(eng, stateArenaKey, func(st *State) **State { return &st.arenaNext })
	st := a.Take(eng)
	if st == nil {
		st = &State{}
		a.Add(st)
	}
	return st
}
