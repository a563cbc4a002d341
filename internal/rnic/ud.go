package rnic

import (
	"odpsim/internal/fifo"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
)

// UDSendWR is a datagram send: the destination travels with the work
// request (address handle), not the QP.
type UDSendWR struct {
	ID      uint64
	DestLID uint16
	DestQPN uint32
	Local   hostmem.Addr
	Len     int
	// AppSeq models an application header carried in the payload (the
	// RPC sequence number software reliability schemes match on).
	AppSeq uint64
	// AppWords is a small inline application payload.
	AppWords []uint64
}

// UDQP is an Unreliable Datagram queue pair: connectionless, no
// acknowledgements, no retransmission — the transport §VIII-C's
// software-reliability systems build on. Loss recovery, if any, is the
// application's job.
type UDQP struct {
	rnic   *RNIC
	Num    uint32
	sendCQ *CQ
	recvCQ *CQ
	rq     fifo.Queue[RecvWR]

	// Counters.
	Sent          uint64
	Delivered     uint64
	DroppedNoRecv uint64 // arrived with an empty receive queue
	DroppedFault  uint64 // arrived into a stale ODP page

	labels string // rendered telemetry label set (qptable.go)
}

// CreateUDQP creates a datagram QP. It shares the QPN space with RC QPs.
func (r *RNIC) CreateUDQP(sendCQ, recvCQ *CQ) *UDQP {
	qp := &UDQP{rnic: r, Num: r.nextQPN(), sendCQ: sendCQ, recvCQ: recvCQ}
	r.addQP(qpSlot{ud: qp})
	return qp
}

// PostRecv posts a receive buffer.
func (qp *UDQP) PostRecv(wr RecvWR) { qp.rq.Push(wr) }

// RecvDepth returns the number of posted receive buffers.
func (qp *UDQP) RecvDepth() int { return qp.rq.Len() }

// PostSend transmits one datagram. UD sends complete as soon as the
// packet leaves the port; there is no acknowledgement.
func (qp *UDQP) PostSend(wr UDSendWR) {
	qp.Sent++
	pkt := qp.rnic.pool.Get()
	pkt.DLID = wr.DestLID
	pkt.DestQP = wr.DestQPN
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpUDSend
	pkt.PayloadLen = wr.Len
	pkt.AppSeq = wr.AppSeq
	pkt.AppWords = wr.AppWords
	qp.rnic.Port.Send(pkt)
	qp.rnic.countWC(WCSuccess)
	qp.sendCQ.push(CQE{WRID: wr.ID, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: wr.Len})
}

// receive handles an arriving datagram. Unlike RC there is no RNR NAK: a
// datagram that cannot be placed — no receive buffer, or a stale ODP page
// — is silently dropped, and nobody retransmits it.
func (qp *UDQP) receive(pkt *packet.Packet) {
	if qp.rq.Len() == 0 {
		qp.DroppedNoRecv++
		return
	}
	rwr := qp.rq.Front()
	r := qp.rnic
	if kind, ok := r.lookupMR(rwr.Addr, pkt.PayloadLen); ok {
		// The driver migrates an NP-RDMA landing buffer synchronously, so
		// a datagram is never dropped for translation under NP-RDMA. An
		// ODP miss starts the fault for next time, but this datagram is
		// gone.
		if _, ready := r.ready(qp.Num, kind, rwr.Addr, pkt.PayloadLen); !ready {
			qp.DroppedFault++
			return
		}
	}
	qp.rq.Pop()
	qp.Delivered++
	qp.rnic.countWC(WCSuccess)
	qp.recvCQ.push(CQE{
		WRID: rwr.ID, QPN: qp.Num, Status: WCSuccess, Op: OpSend,
		ByteLen: pkt.PayloadLen, Recv: true, SrcQPN: pkt.SrcQP, SrcLID: pkt.SLID,
		AppSeq: pkt.AppSeq, AppWords: pkt.AppWords,
	})
}
