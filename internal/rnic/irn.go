package rnic

import (
	"math/bits"

	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// This file is the rnic half of the IRN selective-repeat transport
// (internal/irn holds the protocol state machines). With EnableIRN the
// QP's requester and responder take these branches instead of the
// go-back-N ones in qp.go/responder.go:
//
//   - the responder accepts out-of-order request arrivals into a bounded
//     reorder buffer and answers them with SACKs (cumulative ACK +
//     reception bitmap) instead of PSN-sequence-error NAKs; execution
//     stays in ePSN order and sweeps the buffered run when a gap fills;
//   - loss recovery is per packet: a SACK hole, an RNR NAK or a timeout
//     retransmits exactly one request, never the window tail;
//   - injection is bounded by bandwidth × base RTT (and the reorder
//     window) instead of relying on PFC backpressure;
//   - an ODP page fault holds only the faulting PSN: the responder NAKs
//     that packet per-packet (no pending window on the requester, so no
//     response discards and no damming replay batches), and a
//     client-side fault reissues only the faulting READ.

// EnableIRN switches every QP created afterwards to the IRN transport.
// Call before CreateQP; the irn_* counters register here so go-back-N
// devices keep their exact pre-existing metric set. A zero-value config
// derives the BDP from the device's line rate and the default base RTT.
func (r *RNIC) EnableIRN(cfg irn.Config) {
	if r.irnOn {
		panic("rnic: EnableIRN called twice")
	}
	r.irnOn = true
	if cfg.LineGbps <= 0 {
		cfg.LineGbps = r.prof.LinkGbps
	}
	r.irnBDP = cfg.EffectiveBDP()
	r.tel.Counter(telemetry.IrnSackSent, "SACKs sent for out-of-order arrivals", nil, &r.SackSent)
	r.tel.Counter(telemetry.IrnOooLanded, "requests accepted out of order into the reorder buffer", nil, &r.OooLanded)
	r.tel.Counter(telemetry.IrnBdpStalls, "sends deferred by the BDP injection cap", nil, &r.BdpStalls)
	r.tel.Counter(telemetry.IrnRetransmitted, "selective (single-packet) retransmissions", nil, &r.IrnRetrans)
}

// IRNEnabled reports whether the device runs the IRN transport.
func (r *RNIC) IRNEnabled() bool { return r.irnOn }

// irnHeaderBytes approximates the per-message header overhead charged
// against the BDP cap (LRH+BTH+RETH+CRCs of the request, or of one
// response chunk for READs).
const irnHeaderBytes = 48

// irnChargeBytes is the wire weight a WR charges against the BDP: the
// data-bearing direction's bytes (responses for READs, the request for
// everything else).
func (qp *QP) irnChargeBytes(w *wqe) int {
	return w.Len + irnHeaderBytes
}

// irnPump transmits queued WRs while the BDP cap and reorder-window
// span allow. The IRN requester has no pending windows, so the damming
// preconditions (postedPaused, inResume) never arise.
func (qp *QP) irnPump() {
	if qp.state != QPReady {
		return
	}
	sent := false
	for qp.sq.Len() > 0 {
		w := qp.sq.Front()
		if (w.Op == OpRead || isAtomic(w.Op)) && qp.OutstandingReads() >= qp.params.MaxRdAtomic {
			break
		}
		npsn := 1
		if w.Op == OpRead {
			npsn = (w.Len + qp.rnic.prof.MTU - 1) / qp.rnic.prof.MTU
			if npsn < 1 {
				npsn = 1
			}
		}
		bytes := qp.irnChargeBytes(w)
		if !qp.irn.TX.CanSend(bytes, npsn) {
			qp.rnic.BdpStalls++
			break
		}
		qp.sq.Pop()
		w.firstPSN, w.npsn = qp.nextPSN, int32(npsn)
		qp.nextPSN = packet.PSNAdd(qp.nextPSN, npsn)
		if qp.out.Len() == 0 {
			qp.rnic.busyQPs++
		}
		qp.out.Push(w)
		qp.irn.TX.OnSend(w.firstPSN, npsn, bytes)
		qp.sendRequest(w)
		sent = true
	}
	if sent && !qp.toTimer.Pending() {
		qp.armTimeout()
	}
}

// irnOnTimeout retransmits only the oldest unacknowledged request — the
// per-packet replacement for the go-back-N window replay.
func (qp *QP) irnOnTimeout() {
	o := qp.out.Front()
	o.attempts++
	qp.Stats.Timeouts++
	if o.attempts > qp.params.RetryCount {
		qp.fatal(o, WCRetryExcErr)
		return
	}
	if qp.sendRequest(o) {
		qp.Stats.Retransmits++
		qp.rnic.IrnRetrans++
	}
	qp.armTimeout()
}

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
	if qp.sendRequest(o) {
		qp.Stats.Retransmits++
		qp.rnic.IrnRetrans++
	}
	if !qp.toTimer.Pending() {
		qp.armTimeout()
	}
}

// irnHandleRNR is the per-packet RNR NAK path: only the faulting
// request waits out the advertised delay; every other in-flight packet
// keeps flowing. No pending window, no response discards, no damming.
func (qp *QP) irnHandleRNR(pkt *packet.Packet) {
	qp.Stats.RNRNakReceived++
	o := qp.findOut(pkt.AckPSN)
	if o == nil {
		return
	}
	if qp.params.RNRRetry < 7 {
		o.rnrAttempts++
		if o.rnrAttempts > qp.params.RNRRetry {
			qp.fatal(o, WCRNRRetryExcErr)
			return
		}
	}
	wait := qp.rnic.eng.Jitter(
		sim.Time(float64(pkt.RNRTimerNs)*qp.rnic.prof.RNRWaitFactor), 0.05)
	psn := o.firstPSN
	qp.rnic.eng.ScheduleAfter(wait, func() { qp.irnRetransmitPSN(psn) })
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
		if qp.sendRequest(o) {
			o.retxDone = true
			qp.Stats.Retransmits++
			qp.rnic.IrnRetrans++
			resent = true
		}
	}
	if resent {
		qp.armTimeout()
	}
}

// irnClientFault is the IRN client-side ODP path for a READ response
// whose local page is not yet resident: drop the response, register the
// fault, and reissue only the faulting READ after the retransmission
// interval. Other responses keep landing — the packet-flood loop
// shrinks from the whole window to one request.
func (qp *QP) irnClientFault(o *wqe) {
	qp.Stats.ResponsesDiscarded++
	qp.Stats.ClientFaultRounds++
	if !o.faulted {
		o.faulted = true
		qp.rnic.ODP.Fault(qp.Num, o.LocalAddr, o.Len)
	} else {
		qp.rnic.ODP.Spurious(qp.Num, o.LocalAddr, o.Len)
	}
	delay := qp.rnic.eng.Jitter(qp.rnic.ODP.RetransInterval(), 0.1)
	psn := o.firstPSN
	qp.rnic.eng.ScheduleAfter(delay, func() { qp.irnRetransmitPSN(psn) })
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
// out-of-order packets stash and SACK, duplicates re-acknowledge.
func (qp *QP) irnResponderReceive(pkt *packet.Packet) {
	r := qp.rnic
	rb := &qp.irn.RB
	switch rb.Classify(pkt.PSN) {
	case irn.InOrder:
		npsn, ok := qp.irnExecute(pkt)
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
		qp.irnRespondDup(pkt)
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
		npsn, ok := qp.irnExecute(h)
		if !ok {
			rb.DropHead()
			return
		}
		rb.Advance(npsn)
	}
}

// irnExecute runs one request packet at the head of the window. It
// returns the PSN span to advance by and whether execution succeeded;
// on an ODP miss it registers the fault and sends the per-packet RNR
// NAK (the caller leaves ePSN in place). Acknowledgement mirrors the
// go-back-N responder: WRITEs ACK when asked, SENDs ACK after the CQE,
// READs answer with response packets.
func (qp *QP) irnExecute(pkt *packet.Packet) (npsn int, ok bool) {
	r := qp.rnic
	switch pkt.Opcode {
	case packet.OpReadRequest:
		addr := hostmem.Addr(pkt.RemoteAddr)
		length := int(pkt.DMALen)
		npsn = (length + r.prof.MTU - 1) / r.prof.MTU
		if npsn < 1 {
			npsn = 1
		}
		if _, found := r.lookupMR(addr, length); !found {
			qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
			return npsn, false
		}
		ok, stall := qp.translateRemote(addr, length)
		if !ok {
			r.RNRNakSent++
			qp.sendRNRNak(pkt.PSN)
			return npsn, false
		}
		r.ReadsExecuted++
		if stall > 0 {
			// Capture copies: a closure over the named result would
			// move it to the heap on every call.
			psn, n := pkt.PSN, npsn
			r.eng.ScheduleAfter(stall, func() { qp.sendReadResponse(psn, length, n) })
			return npsn, true
		}
		qp.sendReadResponse(pkt.PSN, length, npsn)
		return npsn, true

	case packet.OpWriteOnly:
		addr := hostmem.Addr(pkt.RemoteAddr)
		length := int(pkt.DMALen)
		if _, found := r.lookupMR(addr, length); !found {
			qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
			return 1, false
		}
		ok, stall := qp.translateRemote(addr, length)
		if !ok {
			r.RNRNakSent++
			qp.sendRNRNak(pkt.PSN)
			return 1, false
		}
		r.WritesExecuted++
		if pkt.AckReq {
			if stall > 0 {
				psn := pkt.PSN
				r.eng.ScheduleAfter(stall, func() { qp.sendAck(packet.SynACK, psn) })
			} else {
				qp.sendAck(packet.SynACK, pkt.PSN)
			}
		}
		return 1, true

	case packet.OpSendOnly:
		if qp.rq.Len() == 0 {
			r.RNRNakSent++
			r.OutOfBuffer++
			qp.sendRNRNak(pkt.PSN)
			return 1, false
		}
		rwr := qp.rq.Front()
		ok, stall := qp.translateRemote(rwr.Addr, pkt.PayloadLen)
		if !ok {
			r.RNRNakSent++
			qp.sendRNRNak(pkt.PSN)
			return 1, false
		}
		qp.rq.Pop()
		if stall > 0 {
			id, psn, plen := rwr.ID, pkt.PSN, pkt.PayloadLen
			r.eng.ScheduleAfter(stall, func() {
				qp.deliver(qp.recvCQ, CQE{WRID: id, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: plen, Recv: true})
				qp.sendAck(packet.SynACK, psn)
			})
			return 1, true
		}
		qp.deliver(qp.recvCQ, CQE{WRID: rwr.ID, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: pkt.PayloadLen, Recv: true})
		qp.sendAck(packet.SynACK, pkt.PSN)
		return 1, true

	case packet.OpFetchAdd, packet.OpCmpSwap:
		return 1, qp.irnExecuteAtomic(pkt)
	}
	return 1, true
}

// irnExecuteAtomic executes an atomic at the head of the window,
// sharing the replay cache with the go-back-N responder.
func (qp *QP) irnExecuteAtomic(pkt *packet.Packet) bool {
	r := qp.rnic
	addr := hostmem.Addr(pkt.RemoteAddr)
	if _, found := r.lookupMR(addr, 8); !found {
		qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
		return false
	}
	ok, stall := qp.translateRemote(addr, 8)
	if !ok {
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return false
	}
	orig := r.AS.ReadWord(addr)
	switch pkt.Opcode {
	case packet.OpFetchAdd:
		r.AS.WriteWord(addr, orig+pkt.AtomicSwap)
	case packet.OpCmpSwap:
		if orig == pkt.AtomicCompare {
			r.AS.WriteWord(addr, pkt.AtomicSwap)
		}
	}
	r.AtomicsExecuted++
	qp.rememberAtomic(pkt.PSN, orig)
	if stall > 0 {
		psn := pkt.PSN
		r.eng.ScheduleAfter(stall, func() { qp.sendAtomicResp(psn, orig) })
		return true
	}
	qp.sendAtomicResp(pkt.PSN, orig)
	return true
}

// irnRespondDup re-answers an already-executed request: READs re-send
// their data (the requester only re-asks after losing responses),
// atomics replay from the cache, and everything else gets the current
// cumulative ACK so the requester can clean up a lost acknowledgement.
func (qp *QP) irnRespondDup(pkt *packet.Packet) {
	r := qp.rnic
	switch pkt.Opcode {
	case packet.OpReadRequest:
		addr := hostmem.Addr(pkt.RemoteAddr)
		length := int(pkt.DMALen)
		npsn := (length + r.prof.MTU - 1) / r.prof.MTU
		if npsn < 1 {
			npsn = 1
		}
		if _, found := r.lookupMR(addr, length); !found {
			qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
			return
		}
		ok, stall := qp.translateRemote(addr, length)
		if !ok {
			r.RNRNakSent++
			qp.sendRNRNak(pkt.PSN)
			return
		}
		r.ReadsExecuted++
		if stall > 0 {
			psn := pkt.PSN
			r.eng.ScheduleAfter(stall, func() { qp.sendReadResponse(psn, length, npsn) })
			return
		}
		qp.sendReadResponse(pkt.PSN, length, npsn)
	case packet.OpFetchAdd, packet.OpCmpSwap:
		if orig, ok := qp.atomicReplay[pkt.PSN]; ok {
			qp.sendAtomicResp(pkt.PSN, orig)
		}
	default:
		qp.sendAck(packet.SynACK, packet.PSNAdd(qp.irn.RB.EPSN(), -1))
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
