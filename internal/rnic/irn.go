package rnic

import (
	"math/bits"

	"odpsim/internal/irn"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// This file is the rnic half of the IRN selective-repeat transport
// (internal/irn holds the protocol state machines). IRN is a delta on
// the go-back-N QP, and everything both transports do alike is shared:
// the responder's execute path (translation, RNR NAKs, the operation,
// NP-RDMA stalls, the reply), the send pump, the timeout's attempt
// budget, and the RNR and client-fault counters, retry budgets and
// jitter draws. With EnableIRN a QP differs only in these steps:
//
//   - sequencing: the responder accepts out-of-order arrivals into a
//     bounded reorder buffer and answers them with SACKs (cumulative
//     ACK + reception bitmap) instead of PSN-sequence-error NAKs;
//     execution stays in ePSN order and sweeps the buffered run when a
//     gap fills (irnResponderReceive, irnSweep). A duplicate READ runs
//     again, a duplicate atomic replays, anything else gets the
//     cumulative ACK;
//   - injection: the pump charges each WR against bandwidth × base RTT
//     and the reorder window instead of relying on PFC backpressure;
//   - loss recovery is per packet: a SACK hole, a timeout, an RNR NAK or
//     a client-side ODP fault retransmits exactly one request
//     (retransmitOne, irnRetransmitPSN), never the window tail, and
//     never through a pending window — so no response discards and no
//     damming replay batches;
//   - completions release the requests' BDP charges (irnReleaseTX).

// EnableIRN switches every QP created afterwards to the IRN transport.
// Call before CreateQP; the irn_* counters register here so go-back-N
// devices keep their exact pre-existing metric set. The injection cap
// is the profile's line rate times irn.BaseRTT.
func (r *RNIC) EnableIRN() {
	if r.irnOn {
		panic("rnic: EnableIRN called twice")
	}
	r.irnOn = true
	r.irnBDP = int(r.prof.LinkGbps / 8 * float64(irn.BaseRTT)) // Gbit/s ÷ 8 = bytes per ns
	telemetry.Register(&r.tel, &irnMetrics, r)
}

// irnMetrics is the IRN counter table: responder SACKs and out-of-order
// landings, requester BDP stalls and selective retransmissions.
var irnMetrics = telemetry.Table[RNIC]{
	{Name: telemetry.IrnSackSent, Help: "SACKs sent for out-of-order arrivals", Read: func(r *RNIC) float64 { return float64(r.SackSent) }},
	{Name: telemetry.IrnOooLanded, Help: "requests accepted out of order into the reorder buffer", Read: func(r *RNIC) float64 { return float64(r.OooLanded) }},
	{Name: telemetry.IrnBdpStalls, Help: "sends deferred by the BDP injection cap", Read: func(r *RNIC) float64 { return float64(r.BdpStalls) }},
	{Name: telemetry.IrnRetransmitted, Help: "selective (single-packet) retransmissions", Read: func(r *RNIC) float64 { return float64(r.IrnRetrans) }},
}

// irnHeaderBytes approximates the per-message header overhead charged
// against the BDP cap (LRH+BTH+RETH+CRCs of the request, or of one
// response chunk for READs): a WR charges its data-bearing direction's
// bytes plus this.
const irnHeaderBytes = 48

// irnRetransmitPSN reissues the single request containing psn (the RNR
// and client-fault recovery path). The request may have completed in
// the meantime — a duplicate ACK or response can beat the timer.
func (qp *QP) irnRetransmitPSN(psn uint32) {
	if qp.state != QPReady {
		return
	}
	o := qp.findOut(psn)
	if o == nil {
		return
	}
	qp.retransmitOne(o)
	if !qp.toTimer.Pending() {
		qp.armTimeout()
	}
}

// irnRetry is one scheduled irnRetransmitPSN. Its callback is bound
// once, at allocation, and the record returns to the engine's free list
// (scratch.freeRetries) as it fires, so RNR and client-fault back-offs
// do not allocate a closure each.
type irnRetry struct {
	qp   *QP
	psn  uint32
	next *irnRetry
	fn   func()
}

// irnRetryAfter retransmits the request containing psn after delay.
func (qp *QP) irnRetryAfter(delay sim.Time, psn uint32) {
	s := qp.rnic.scratch
	t := s.freeRetries
	if t == nil {
		t = new(irnRetry)
		t.fn = func() {
			owner, p := t.qp, t.psn
			t.qp, t.next = nil, s.freeRetries
			s.freeRetries = t
			owner.irnRetransmitPSN(p)
		}
	} else {
		s.freeRetries, t.next = t.next, nil
	}
	t.qp, t.psn = qp, psn
	qp.rnic.eng.ScheduleAfter(delay, t.fn)
}

// irnHandleSack processes a selective acknowledgement: complete through
// the cumulative point, mark requests the bitmap shows received, and
// retransmit each hole below the highest sacked PSN exactly once per
// recovery round (a hole that stays open falls back to the timeout).
func (qp *QP) irnHandleSack(pkt *packet.Packet) {
	if qp.irn == nil {
		return // a SACK can only reach a go-back-N QP by misconfiguration
	}
	qp.ackThrough(pkt.AckPSN)
	bm := pkt.SackBitmap
	if bm == 0 || qp.out.Len() == 0 {
		return
	}
	base := pkt.SackBase
	hi := 63 - bits.LeadingZeros64(bm)
	hiPSN := packet.PSNAdd(base, hi)
	resent := false
	for _, o := range qp.out.Items() {
		d := packet.PSNDiff(o.firstPSN, base)
		if d >= 0 && d < 64 && bm&(1<<uint(d)) != 0 {
			o.sacked = true
			continue
		}
		if d < 0 || !packet.PSNLess(o.firstPSN, hiPSN) || o.sacked || o.retxDone {
			continue
		}
		if qp.retransmitOne(o) {
			o.retxDone = true
			resent = true
		}
	}
	if resent {
		qp.armTimeout()
	}
}

// irnReleaseTX frees completed requests' BDP charges: everything below
// the new head of the outstanding window has been delivered in order.
func (qp *QP) irnReleaseTX() {
	upto := qp.nextPSN
	if qp.out.Len() > 0 {
		upto = qp.out.Front().firstPSN
	}
	qp.irn.TX.Complete(upto)
}

// irnResponderReceive classifies an arriving request against the
// reorder buffer: in-order packets execute and sweep the buffered run,
// out-of-order packets stash and SACK, duplicates are answered again.
func (qp *QP) irnResponderReceive(pkt *packet.Packet) {
	r := qp.rnic
	rb := &qp.irn.RB
	switch rb.Classify(pkt.PSN) {
	case irn.InOrder:
		npsn, ok := qp.execute(pkt)
		if !ok {
			return // NAKed per packet; ePSN holds
		}
		rb.Advance(npsn)
		qp.irnSweep()
	case irn.Duplicate:
		r.DuplicateRequests++
		if packet.PSNDiff(pkt.PSN, rb.EPSN()) > 0 {
			// Stashed but not yet executed: refresh the SACK.
			qp.irnSendSack()
			return
		}
		// Already executed: READs send their data again (the requester
		// only re-asks after losing responses), atomics replay from the
		// cache, and everything else gets the current cumulative ACK so
		// the requester can clean up a lost acknowledgement.
		switch pkt.Opcode {
		case packet.OpReadRequest:
			qp.execute(pkt)
		case packet.OpFetchAdd, packet.OpCmpSwap:
			qp.replayAtomic(pkt)
		default:
			qp.sendAck(packet.SynACK, packet.PSNAdd(rb.EPSN(), -1))
		}
	case irn.OutOfOrder:
		r.OooLanded++
		rb.Stash(pkt)
		qp.irnSendSack()
	case irn.BeyondWindow:
		// A conforming requester's span cap keeps arrivals inside the
		// window; drop and restate our receive state.
		qp.irnSendSack()
	}
}

// irnSweep executes stashed packets as the gap fills, advancing ePSN
// through the buffered run. A head that faults is NAKed per packet and
// dropped from the buffer; the sweep resumes when its retransmission
// arrives.
func (qp *QP) irnSweep() {
	rb := &qp.irn.RB
	for {
		h, ok := rb.Head()
		if !ok {
			return
		}
		npsn, ok := qp.execute(h)
		if !ok {
			rb.DropHead()
			return
		}
		rb.Advance(npsn)
	}
}

// irnSendSack emits the responder's receive state: cumulative ACK plus
// the out-of-order reception bitmap. It doubles as the per-packet NAK
// for the first hole (SackBase).
func (qp *QP) irnSendSack() {
	base, bm := qp.irn.RB.Sack()
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpSACK
	pkt.Syndrome = packet.SynACK
	pkt.AckPSN = packet.PSNAdd(base, -1)
	pkt.PSN = pkt.AckPSN
	pkt.SackBase = base
	pkt.SackBitmap = bm
	qp.rnic.SackSent++
	qp.rnic.Port.Send(pkt)
}
