package rnic

import (
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
)

// responderReceive handles inbound requests: PSN sequencing and the
// duplicate policy are per transport, execution (translation with
// server-side ODP faults answered by RNR NAK, the operation and its
// acknowledgement) is shared through execute.
func (qp *QP) responderReceive(pkt *packet.Packet) {
	if qp.state != QPReady {
		return
	}
	r := qp.rnic
	if pkt.DammingDoomed {
		// The ConnectX-4 quirk: the packet reached the wire but the
		// RNIC discards it without processing or NAK — the expected
		// PSN stays where it was, damming everything behind it.
		r.DammedDrops++
		return
	}
	if qp.irn != nil {
		qp.irnResponderReceive(pkt)
		return
	}
	d := packet.PSNDiff(pkt.PSN, qp.ePSN)
	switch {
	case d > 0:
		// A gap: an earlier request was lost. NAK with the PSN we
		// expected so the requester retransmits from there (Figure 8).
		r.NakSeqSent++
		qp.sendAck(packet.SynNAKSeqErr, qp.ePSN)
	case d < 0:
		r.DuplicateRequests++
		switch pkt.Opcode {
		case packet.OpSendOnly:
			// Already consumed a receive buffer for it; just re-ACK.
			qp.sendAck(packet.SynACK, pkt.PSN)
		case packet.OpFetchAdd, packet.OpCmpSwap:
			if _, found := r.lookupMR(hostmem.Addr(pkt.RemoteAddr), 8); !found {
				qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
				return
			}
			qp.replayAtomic(pkt)
		default:
			qp.execute(pkt) // READs and WRITEs execute again
		}
	default:
		if npsn, ok := qp.execute(pkt); ok {
			qp.ePSN = packet.PSNAdd(pkt.PSN, npsn)
		}
	}
}

// execute performs one request its transport has sequenced: the
// protection check, translation, the operation, its counter and the
// reply. It returns the PSN span the request occupies and whether it
// executed. A target outside every registration, a SEND's receive
// buffer included, is a remote access error. On an ODP miss it
// registers the fault and sends the RNR NAK (ok=false): the reliability
// of RC leaves the request on the requester side, so nothing needs to
// be stored here (§III-B). An NP-RDMA stall defers only the reply; the
// request itself is accepted. Only the five request opcodes reach here
// (Opcode.IsRequest).
func (qp *QP) execute(pkt *packet.Packet) (npsn int, ok bool) {
	r := qp.rnic
	npsn = 1
	addr, length := hostmem.Addr(pkt.RemoteAddr), int(pkt.DMALen)
	switch pkt.Opcode {
	case packet.OpSendOnly:
		if qp.rq.Len() == 0 {
			// The genuine Receiver-Not-Ready condition.
			r.OutOfBuffer++
			r.RNRNakSent++
			qp.sendRNRNak(pkt.PSN)
			return npsn, false
		}
		addr, length = qp.rq.Front().Addr, pkt.PayloadLen
	case packet.OpReadRequest:
		npsn = r.span(length)
	}
	kind, found := r.lookupMR(addr, length)
	if !found {
		qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
		return npsn, false
	}
	stall, ok := r.ready(qp.Num, kind, addr, length)
	if !ok {
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return npsn, false
	}
	// The stall closures capture fresh copies: a closure over a
	// variable that is reassigned (npsn, addr, length) would move it to
	// the heap on every call.
	switch pkt.Opcode {
	case packet.OpReadRequest:
		r.ReadsExecuted++
		if stall > 0 {
			psn, l, n := pkt.PSN, length, npsn
			r.eng.ScheduleAfter(stall, func() { qp.sendReadResponse(psn, l, n) })
		} else {
			qp.sendReadResponse(pkt.PSN, length, npsn)
		}
	case packet.OpWriteOnly:
		r.WritesExecuted++
		if !pkt.AckReq {
			break
		}
		if stall > 0 {
			psn := pkt.PSN
			r.eng.ScheduleAfter(stall, func() { qp.sendAck(packet.SynACK, psn) })
		} else {
			qp.sendAck(packet.SynACK, pkt.PSN)
		}
	case packet.OpSendOnly:
		id := qp.rq.Pop().ID
		if stall > 0 {
			psn, plen := pkt.PSN, pkt.PayloadLen
			r.eng.ScheduleAfter(stall, func() { qp.completeRecv(id, psn, plen) })
		} else {
			qp.completeRecv(id, pkt.PSN, pkt.PayloadLen)
		}
	case packet.OpFetchAdd, packet.OpCmpSwap:
		orig := qp.executeAtomic(pkt, addr)
		if stall > 0 {
			psn := pkt.PSN
			r.eng.ScheduleAfter(stall, func() { qp.sendAtomicResp(psn, orig) })
		} else {
			qp.sendAtomicResp(pkt.PSN, orig)
		}
	}
	return npsn, true
}

// completeRecv completes the receive WR a SEND landed in and ACKs it.
func (qp *QP) completeRecv(id uint64, psn uint32, length int) {
	qp.deliver(qp.recvCQ, CQE{WRID: id, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: length, Recv: true})
	qp.sendAck(packet.SynACK, psn)
}

// sendAck emits an Acknowledge with the given syndrome for psn.
func (qp *QP) sendAck(syn packet.Syndrome, psn uint32) {
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpAcknowledge
	pkt.Syndrome = syn
	pkt.PSN = psn
	pkt.AckPSN = psn
	qp.rnic.Port.Send(pkt)
}

// sendRNRNak emits an RNR NAK advertising this QP's minimal RNR NAK delay.
func (qp *QP) sendRNRNak(psn uint32) {
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpAcknowledge
	pkt.Syndrome = packet.SynRNRNAK
	pkt.PSN = psn
	pkt.AckPSN = psn
	pkt.RNRTimerNs = int64(qp.params.MinRNRDelay)
	qp.rnic.Port.Send(pkt)
}

// sendReadResponse streams the READ payload back as one or more response
// packets with consecutive PSNs.
func (qp *QP) sendReadResponse(firstPSN uint32, length, npsn int) {
	for i := 0; i < npsn; i++ {
		chunk := length - i*MTU
		if chunk > MTU {
			chunk = MTU
		}
		if chunk < 0 {
			chunk = 0
		}
		var op packet.Opcode
		switch {
		case npsn == 1:
			op = packet.OpReadRespOnly
		case i == 0:
			op = packet.OpReadRespFirst
		case i == npsn-1:
			op = packet.OpReadRespLast
		default:
			op = packet.OpReadRespMiddle
		}
		pkt := qp.rnic.pool.Get()
		pkt.DLID = qp.dlid
		pkt.DestQP = qp.dqpn
		pkt.SrcQP = qp.Num
		pkt.Opcode = op
		pkt.PSN = packet.PSNAdd(firstPSN, i)
		pkt.AckPSN = packet.PSNAdd(firstPSN, i)
		pkt.Syndrome = packet.SynACK
		pkt.PayloadLen = chunk
		// READ responses are the data-bearing direction of a READ
		// workload, so they flow through the same DCQCN limiter.
		qp.sendPaced(pkt)
	}
}
