package rnic

import (
	"fmt"

	"odpsim/internal/congestion"
	"odpsim/internal/fifo"
	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// SendOp is the operation type of a send work request.
type SendOp int

// Send operations.
const (
	OpRead SendOp = iota
	OpWrite
	OpSend
)

// String implements fmt.Stringer.
func (o SendOp) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpSend:
		return "SEND"
	case OpAtomicFA:
		return "FETCH_ADD"
	case OpAtomicCS:
		return "CMP_SWAP"
	default:
		return fmt.Sprintf("SendOp(%d)", int(o))
	}
}

// SendWR is a send work request.
type SendWR struct {
	ID         uint64
	Op         SendOp
	LocalAddr  hostmem.Addr
	RemoteAddr hostmem.Addr // ignored for SEND
	Len        int
	// CompareAdd is the addend (fetch-and-add) or compare value
	// (compare-and-swap); Swap is the swap value (compare-and-swap).
	CompareAdd uint64
	Swap       uint64
}

// RecvWR is a receive work request.
type RecvWR struct {
	ID   uint64
	Addr hostmem.Addr
	Len  int
}

// ConnParams are the connection attributes the paper varies: Local ACK
// Timeout (C_ACK), Retry Count (C_retry) and the minimal RNR NAK delay.
type ConnParams struct {
	// CACK is the Local ACK Timeout exponent; 0 disables the timeout.
	CACK int
	// RetryCount is C_retry: the retransmission budget before
	// IBV_WC_RETRY_EXC_ERR.
	RetryCount int
	// MinRNRDelay is advertised in RNR NAKs this QP sends as responder.
	MinRNRDelay sim.Time
	// MaxRdAtomic caps outstanding RDMA READs (0 = device default).
	MaxRdAtomic int
	// RNRRetry is the RNR retry budget; per the InfiniBand convention 7
	// means retry forever. 0 selects the default of 7.
	RNRRetry int
}

// QPState is the (simplified) queue pair state.
type QPState uint8

// QP states.
const (
	QPReset QPState = iota
	QPReady         // equivalent of RTS
	QPError
)

// wqe is one send work request from post to completion: the posted
// SendWR, the requester-side bookkeeping that the damming quirk and
// client-side ODP need, and — once the send engine takes it from sq —
// its PSN span and retry state. The same object sits in sq while it
// waits and in out while it is outstanding. It returns to the engine's
// WR pool (RNIC.freeWQE) when it completes or flushes, so steady
// traffic allocates no request objects; nothing may keep a *wqe past
// that point (timers capture the PSN instead).
type wqe struct {
	SendWR
	// postedPaused records that the WR was posted while the QP was in a
	// pending window (awaiting an RNR or client-fault retransmission) —
	// the packet-damming precondition.
	postedPaused bool
	// faulted marks that the client-side fault for the local buffer was
	// already registered with the ODP engine.
	faulted bool
	// nprHeld marks that the WR holds NP-RDMA frame references on its
	// local buffer (taken at first transmission, dropped when the WR
	// leaves the outstanding window). Held frames cannot evict, so READ
	// responses always find a valid translation — no discard, no blind
	// retransmission.
	nprHeld bool
	// IRN bookkeeping: sacked marks the request's arrival confirmed by
	// a SACK bitmap; retxDone guards selective retransmission to once
	// per recovery round (a persistent hole falls back to the timeout).
	sacked   bool
	retxDone bool
	// local is how the WR's local buffer translates, classified once
	// when the WR moves from sq to out. Only KindODP locals take the
	// client-fault discard path: NP-RDMA locals are driver-held for the
	// WR's lifetime (nprHeld). It sits in the bools' padding, which
	// keeps the wqe in the 96-byte allocation size class.
	local MemKind

	// Transmission state, set when the WR moves from sq to out.
	firstPSN    uint32
	npsn        int32
	attempts    int
	rnrAttempts int

	// next links the WR pool's free list.
	next *wqe
}

func (o *wqe) lastPSN() uint32 { return packet.PSNAdd(o.firstPSN, int(o.npsn)-1) }

// QPStats counts requester-side events.
type QPStats struct {
	Posted             uint64
	Completed          uint64
	Timeouts           uint64
	Retransmits        uint64
	RNRNakReceived     uint64
	NakSeqReceived     uint64
	ResponsesDiscarded uint64
	ClientFaultRounds  uint64
}

// QP is a queue pair: both the requester and the responder state machines
// of one Reliable Connection endpoint.
type QP struct {
	rnic *RNIC
	Num  uint32
	// ePSN is the responder's expected PSN. It sits here, apart from the
	// rest of the responder state, to fill Num's padding, which keeps
	// the QP at 400 bytes (qpBlock).
	ePSN   uint32
	sendCQ *CQ
	recvCQ *CQ

	state  QPState
	dlid   uint16
	dqpn   uint32
	params ConnParams

	// Requester state.
	sq        fifo.Queue[*wqe] // posted, not yet transmitted
	out       fifo.Queue[*wqe] // transmitted, not yet completed
	nextPSN   uint32
	paused    bool
	inResume  bool
	pauseFrom uint32
	// The Local ACK Timeout and the pending window's resume timer are
	// record timers: each arms the QP itself, as a qpTimeout or a
	// qpResume, so arming binds no callback.
	resumeTimer sim.Timer
	toTimer     sim.Timer

	// DCQCN state: rate is the reaction-point limiter (nil unless the
	// device enabled DCQCN before this QP was created), lastCNP the
	// notification-point pacing clock for marked arrivals on this QP.
	rate    *congestion.RateState
	lastCNP sim.Time

	// irn is the selective-repeat transport state (nil on go-back-N
	// devices; see EnableIRN and internal/rnic/irn.go).
	irn *irn.State

	// Responder state (and ePSN above).
	rq fifo.Queue[RecvWR]
	// atomicReplay caches executed atomics' original values for
	// duplicate replay (see atomics.go).
	atomicReplay map[uint32]uint64
	atomicOrder  fifo.Queue[uint32]
	// pendingAtomicOrig carries an atomic response's value into the CQE
	// built by completeThrough.
	pendingAtomicOrig uint64

	Stats QPStats
	// labels is the QP's rendered telemetry label set (qptable.go).
	labels string

	// arenaNext links the engine's QP arena (CreateQP); recycle keeps it.
	arenaNext *QP
}

// recycle returns a QP taken back from the engine's arena to the zero
// state CreateQP fills in, field by field: it keeps only the arena link
// and the queues' storage (cleared), a chunk or what grew past it.
func (qp *QP) recycle() {
	kept := QP{
		sq:          qp.sq,
		out:         qp.out,
		rq:          qp.rq,
		atomicOrder: qp.atomicOrder,
		arenaNext:   qp.arenaNext,
	}
	kept.sq.Clear()
	kept.out.Clear()
	kept.rq.Clear()
	kept.atomicOrder.Clear()
	*qp = kept
}

// deliver pushes a CQE, tallying it in the device's per-status
// completion counters first.
func (qp *QP) deliver(cq *CQ, e CQE) {
	qp.rnic.countWC(e.Status)
	cq.push(e)
}

// State returns the QP state.
func (qp *QP) State() QPState { return qp.state }

// Connect transitions the QP to the ready state, bound to the remote LID
// and QP number. It corresponds to the INIT→RTR→RTS modify sequence.
func (qp *QP) Connect(dlid uint16, dqpn uint32, params ConnParams) {
	if params.MaxRdAtomic <= 0 {
		params.MaxRdAtomic = qp.rnic.prof.MaxRdAtomic
	}
	if params.RetryCount < 0 {
		params.RetryCount = 0
	}
	if params.RNRRetry <= 0 {
		params.RNRRetry = 7
	}
	qp.dlid = dlid
	qp.dqpn = dqpn
	qp.params = params
	qp.state = QPReady
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(wr RecvWR) {
	qp.rq.Push(wr)
}

// PostSend posts a send work request. On an errored QP the WR completes
// immediately with a flush error.
func (qp *QP) PostSend(wr SendWR) {
	if qp.state != QPReady {
		qp.deliver(qp.sendCQ, CQE{WRID: wr.ID, QPN: qp.Num, Status: WCFlushErr, Op: wr.Op})
		return
	}
	qp.Stats.Posted++
	w := qp.rnic.newWQE()
	w.SendWR = wr
	w.postedPaused = qp.paused
	qp.push(&qp.sq, w)
	if !qp.paused {
		qp.pump()
	}
}

// qpChunk is the length of a send or outstanding queue's first array,
// carved from the engine's chunk blocks at the queue's first push: a
// Table-13 QP holds its 4 fetches there. A queue that outgrows it
// doubles from there as fifo.Queue does.
const qpChunk = 4

// push appends w to q, one of the QP's two WR queues; a queue with no
// storage yet takes its first chunk (qpChunk).
func (qp *QP) push(q *fifo.Queue[*wqe], w *wqe) {
	if q.Cap() == 0 {
		q.Use(qp.rnic.scratch.chunks.New()[:])
	}
	q.Push(w)
}

// ReserveSend sizes the send queue for n posted, not yet transmitted
// WRs, as verbs' max_send_wr sizes a QP's send queue at creation: the
// next n PostSends do not grow it. A holder that knows how many WRs it
// will post calls it once instead of letting the queue double from its
// first chunk; a recycled QP keeps the room. A queue of at most qpChunk
// WRs still takes its chunk at the first post.
func (qp *QP) ReserveSend(n int) {
	if n > qpChunk {
		qp.sq.Reserve(n)
	}
}

// OutstandingReads counts in-flight RDMA READs and atomics (both consume
// responder resources and share the MaxRdAtomic budget).
func (qp *QP) OutstandingReads() int {
	n := 0
	for _, o := range qp.out.Items() {
		if o.Op == OpRead || isAtomic(o.Op) {
			n++
		}
	}
	return n
}

// pump transmits queued WRs while flow-control allows. Only go-back-N
// pauses; IRN has no pending windows, so the damming preconditions
// (postedPaused, inResume) never arise there.
func (qp *QP) pump() {
	if qp.paused || qp.state != QPReady {
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
			npsn = qp.rnic.span(w.Len)
		}
		if qp.irn != nil {
			// IRN bounds injection by bandwidth × base RTT and the
			// reorder window instead of relying on PFC backpressure.
			bytes := w.Len + irnHeaderBytes
			if !qp.irn.TX.CanSend(bytes, npsn) {
				qp.rnic.BdpStalls++
				break
			}
			qp.irn.TX.OnSend(qp.nextPSN, npsn, bytes)
		}
		qp.sq.Pop()
		w.firstPSN, w.npsn = qp.nextPSN, int32(npsn)
		w.local, _ = qp.rnic.lookupMR(w.LocalAddr, w.Len)
		qp.nextPSN = packet.PSNAdd(qp.nextPSN, npsn)
		if qp.out.Len() == 0 {
			qp.rnic.busyQPs++
		}
		qp.push(&qp.out, w)
		qp.sendRequest(w)
		sent = true
	}
	// Arm the Local ACK Timeout when transmissions start; an already
	// running timer keeps tracking the oldest outstanding request.
	if sent && !qp.toTimer.Pending() {
		qp.armTimeout()
	}
}

// sendRequest transmits (or retransmits) one request packet, applying the
// ConnectX-4 damming quirk: when the transmission happens as part of a
// pending-window exit batch (an RNR or client-fault resume) and the WR was
// first posted during a pending window, the packet is marked doomed — it
// shows up in a capture but the peer RNIC discards it (DESIGN.md §4.3).
// Timeout- and NAK-triggered retransmissions are unaffected, which is why
// follow-up traffic rescues dammed requests via the PSN sequence error NAK
// (§V-B) while an idle QP has to ride out the full timeout.
//
// The return value reports whether the packet actually went to the wire
// (or was booked for a paced future send); false means the DCQCN TX
// backlog shed it. Retransmission accounting counts wire sends only —
// the counters mirror what a capture or the mlx5 hardware counters see,
// and a shed packet never left the NIC.
func (qp *QP) sendRequest(o *wqe) bool {
	// NP-RDMA local translation: the driver migrates the WR's local
	// buffer into the DMA-able pool and references its frames before the
	// first transmission. Cold pages stall the send by the synchronous
	// migration time; warm pages cost nothing. The cached kind is the
	// only hot-path cost in pin/odp modes.
	var nprStall sim.Time
	if o.local == KindNPR && !o.nprHeld {
		nprStall = qp.rnic.npr.Acquire(o.LocalAddr, o.Len)
		o.nprHeld = true
	}
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.PSN = o.firstPSN
	pkt.AckReq = true
	switch o.Op {
	case OpRead:
		pkt.Opcode = packet.OpReadRequest
		pkt.RemoteAddr = uint64(o.RemoteAddr)
		pkt.DMALen = uint32(o.Len)
	case OpWrite:
		pkt.Opcode = packet.OpWriteOnly
		pkt.RemoteAddr = uint64(o.RemoteAddr)
		pkt.DMALen = uint32(o.Len)
		pkt.PayloadLen = o.Len
	case OpSend:
		pkt.Opcode = packet.OpSendOnly
		pkt.PayloadLen = o.Len
	case OpAtomicFA, OpAtomicCS:
		buildAtomicPacket(pkt, o)
	}
	if qp.rnic.prof.DammingQuirk && o.postedPaused {
		if qp.inResume {
			// Every transmission that happens as part of a replay
			// batch is corrupted for a WR that entered the queue
			// during a pending window — Figure 5 shows the loss
			// repeating until a timeout- or NAK-triggered path takes
			// over.
			pkt.DammingDoomed = true
		} else {
			// Once the WR goes out through the ordinary send path
			// (timeout/NAK retransmission or a pump after progress)
			// it is no longer entangled with the replay state.
			o.postedPaused = false
		}
	}
	if nprStall > 0 {
		// A cold-buffer send leaves the NIC only after the driver
		// migration completes (cold path: the deferred closure follows
		// the sendPaced precedent and owns the packet until Send).
		port := qp.rnic.Port
		qp.rnic.eng.ScheduleAfter(nprStall, func() { port.Send(pkt) })
		return true
	}
	return qp.sendPaced(pkt)
}

// sendPaced transmits through the QP's DCQCN rate limiter: at line rate
// the packet goes straight to the port (no closure, no timer — the
// zero-allocation datapath is untouched unless a CNP has actually cut
// this QP's rate); when limited, transmission is deferred to the rate
// credit's start time. A full TX backlog sheds the packet (returning
// false) — go-back-N storms would otherwise book unbounded future sends
// — and recovery is left to the timeout/NAK machinery that generated
// the burst.
func (qp *QP) sendPaced(pkt *packet.Packet) bool {
	if qp.rate != nil {
		now := qp.rnic.eng.Now()
		start, ok := qp.rate.Reserve(now, pkt.WireSize())
		if !ok {
			qp.rnic.pool.Put(pkt)
			return false
		}
		if start > now {
			port := qp.rnic.Port
			qp.rnic.eng.Schedule(start, func() { port.Send(pkt) })
			return true
		}
	}
	qp.rnic.Port.Send(pkt)
	return true
}

// armTimeout (re)arms the Local ACK Timeout for the oldest outstanding
// request. CACK == 0 disables timeouts per the specification.
func (qp *QP) armTimeout() {
	qp.toTimer.Cancel()
	if qp.params.CACK == 0 || qp.out.Len() == 0 || qp.paused || qp.state != QPReady {
		return
	}
	to := qp.rnic.prof.DrawTimeout(qp.rnic.eng, qp.params.CACK, qp.rnic.busyQPs)
	qp.toTimer = qp.rnic.eng.AfterFire(to, (*qpTimeout)(qp))
}

// qpTimeout and qpResume are a QP under the names of its two record
// timers: Fire is that timer's callback. Converting the QP pointer is
// free, so arming either timer allocates nothing and the QP holds no
// bound method value.
type (
	qpTimeout QP
	qpResume  QP
)

func (t *qpTimeout) Fire() { (*QP)(t).onTimeout() }
func (r *qpResume) Fire()  { (*QP)(r).resumePending() }

// onTimeout charges the oldest outstanding request an attempt and
// retransmits: from it onwards under go-back-N, only it under IRN.
func (qp *QP) onTimeout() {
	if qp.out.Len() == 0 || qp.state != QPReady {
		return
	}
	o := qp.out.Front()
	o.attempts++
	qp.Stats.Timeouts++
	if o.attempts > qp.params.RetryCount {
		qp.fatal(o, WCRetryExcErr)
		return
	}
	if qp.irn != nil {
		qp.retransmitOne(o)
	} else {
		qp.retransmitFrom(o.firstPSN)
	}
	qp.armTimeout()
}

// retransmitFrom resends every outstanding request at or after psn
// (go-back-N). Only packets that reach the wire count as
// retransmissions; sends shed by a full DCQCN TX backlog do not.
func (qp *QP) retransmitFrom(psn uint32) {
	for _, o := range qp.out.Items() {
		if packet.PSNDiff(o.lastPSN(), psn) >= 0 {
			if qp.sendRequest(o) {
				qp.Stats.Retransmits++
			}
		}
	}
}

// retransmitOne resends the single request o (IRN's selective repeat)
// and reports whether it reached the wire.
func (qp *QP) retransmitOne(o *wqe) bool {
	if !qp.sendRequest(o) {
		return false
	}
	qp.Stats.Retransmits++
	qp.rnic.IrnRetrans++
	return true
}

// backOff retries after delay, the last step of RNR and client-fault
// recovery. Go-back-N suspends the send engine in a pending window and
// replays everything from fromPSN; IRN reissues only the request o, and
// every other in-flight packet keeps flowing — no response discards,
// no damming.
func (qp *QP) backOff(delay sim.Time, o *wqe, fromPSN uint32) {
	if qp.irn == nil {
		qp.enterPending(delay, fromPSN)
		return
	}
	qp.irnRetryAfter(delay, o.firstPSN) // the PSN, never the recycled wqe
}

// enterPending puts the requester into a pending window: the send engine
// is suspended, arriving READ responses are discarded, and at the end of
// the window everything from fromPSN is retransmitted and newly posted
// WRs go out (the batch the damming quirk strikes).
func (qp *QP) enterPending(delay sim.Time, fromPSN uint32) {
	qp.paused = true
	qp.pauseFrom = fromPSN
	qp.toTimer.Cancel()
	qp.resumeTimer.Cancel()
	qp.resumeTimer = qp.rnic.eng.AfterFire(delay, (*qpResume)(qp))
}

func (qp *QP) resumePending() {
	if qp.state != QPReady {
		return
	}
	qp.paused = false
	qp.inResume = true
	qp.retransmitFrom(qp.pauseFrom)
	qp.pump()
	qp.inResume = false
	qp.armTimeout()
}

// findOut locates the outstanding request containing psn.
func (qp *QP) findOut(psn uint32) *wqe {
	for _, o := range qp.out.Items() {
		d := packet.PSNDiff(psn, o.firstPSN)
		if d >= 0 && d < int(o.npsn) {
			return o
		}
	}
	return nil
}

// releaseNPR drops the WR's NP-RDMA frame references once it leaves
// the outstanding window (completion, fatal error or reset).
func (qp *QP) releaseNPR(w *wqe) {
	if w.nprHeld {
		w.nprHeld = false
		qp.rnic.npr.Release(w.LocalAddr, w.Len)
	}
}

// requesterReceive handles responses and acknowledges.
func (qp *QP) requesterReceive(pkt *packet.Packet) {
	if qp.state != QPReady {
		return
	}
	switch {
	case pkt.Opcode == packet.OpAcknowledge:
		qp.handleAck(pkt)
	case pkt.Opcode == packet.OpSACK:
		qp.irnHandleSack(pkt)
	case pkt.Opcode == packet.OpAtomicResp:
		qp.handleAtomicResp(pkt)
	case pkt.Opcode.IsReadResponse():
		qp.handleReadResponse(pkt)
	}
}

func (qp *QP) handleAck(pkt *packet.Packet) {
	switch pkt.Syndrome {
	case packet.SynACK:
		qp.ackThrough(pkt.AckPSN)
	case packet.SynRNRNAK:
		qp.Stats.RNRNakReceived++
		if qp.paused {
			return
		}
		o := qp.findOut(pkt.AckPSN)
		if o == nil && qp.irn != nil {
			return // the one request IRN would retry has completed
		}
		if o != nil && qp.params.RNRRetry < 7 {
			o.rnrAttempts++
			if o.rnrAttempts > qp.params.RNRRetry {
				qp.fatal(o, WCRNRRetryExcErr)
				return
			}
		}
		// The requester waits noticeably longer than the advertised
		// minimum (observed ≈3.5× on ConnectX-4, Figure 1).
		wait := qp.rnic.eng.Jitter(
			sim.Time(float64(pkt.RNRTimerNs)*qp.rnic.prof.RNRWaitFactor), 0.05)
		qp.backOff(wait, o, pkt.AckPSN)
	case packet.SynNAKSeqErr:
		qp.Stats.NakSeqReceived++
		if qp.paused {
			return
		}
		qp.retransmitFrom(pkt.AckPSN)
		qp.armTimeout()
	case packet.SynNAKRemoteAccessErr:
		if o := qp.findOut(pkt.AckPSN); o != nil {
			qp.fatal(o, WCRemoteAccessErr)
		}
	}
}

func (qp *QP) handleReadResponse(pkt *packet.Packet) {
	if qp.paused {
		// Responses that arrive during a pending window are discarded
		// (observed via ibdump, Figure 1). Discards whose local page
		// status is stale still cost ODP pipeline work — under
		// go-back-N every outstanding READ's re-executed response
		// lands here, which is a large share of the flood load.
		qp.Stats.ResponsesDiscarded++
		if o := qp.findOut(pkt.PSN); o != nil && o.faulted &&
			o.local == KindODP && !qp.rnic.ODP.Access(qp.Num, o.LocalAddr, o.Len) {
			qp.rnic.ODP.Spurious(qp.Num, o.LocalAddr, o.Len)
		}
		return
	}
	o := qp.findOut(pkt.PSN)
	if o == nil {
		return // ghost or duplicate response
	}
	if o.local == KindODP && !qp.rnic.ODP.Access(qp.Num, o.LocalAddr, o.Len) {
		// Client-side ODP: the RNIC cannot scatter the payload, drops
		// the response, and schedules a blind retransmission of the
		// request — over and over until the page status update lands.
		// Under IRN only the faulting READ retries, so the packet-flood
		// loop shrinks from the whole window to one request.
		qp.Stats.ResponsesDiscarded++
		qp.Stats.ClientFaultRounds++
		if !o.faulted {
			o.faulted = true
			qp.rnic.ODP.Fault(qp.Num, o.LocalAddr, o.Len)
		} else {
			qp.rnic.ODP.Spurious(qp.Num, o.LocalAddr, o.Len)
		}
		delay := qp.rnic.eng.Jitter(qp.rnic.ODP.RetransInterval(), 0.1)
		qp.backOff(delay, o, o.firstPSN)
		return
	}
	last := pkt.Opcode == packet.OpReadRespOnly || pkt.Opcode == packet.OpReadRespLast
	if last && pkt.PSN == o.lastPSN() {
		qp.completeThrough(o)
	}
}

// completeThrough completes every outstanding request up to and including
// o (a READ response implicitly acknowledges everything before it).
func (qp *QP) completeThrough(o *wqe) {
	last := o.lastPSN() // o itself is recycled inside the loop
	for qp.out.Len() > 0 {
		h := qp.out.Front()
		if packet.PSNDiff(h.lastPSN(), last) > 0 {
			break
		}
		qp.out.Pop()
		qp.releaseNPR(h)
		qp.Stats.Completed++
		cqe := CQE{WRID: h.ID, QPN: qp.Num, Status: WCSuccess, Op: h.Op, ByteLen: h.Len}
		if isAtomic(h.Op) {
			cqe.AtomicOrig = qp.pendingAtomicOrig
		}
		qp.deliver(qp.sendCQ, cqe)
		qp.rnic.freeWQE(h)
	}
	qp.afterProgress()
}

// ackThrough completes non-READ requests acknowledged by psn. READs only
// complete when their response data arrives.
func (qp *QP) ackThrough(psn uint32) {
	progressed := false
	for qp.out.Len() > 0 {
		h := qp.out.Front()
		if h.Op == OpRead || isAtomic(h.Op) || packet.PSNDiff(h.lastPSN(), psn) > 0 {
			break
		}
		qp.out.Pop()
		qp.releaseNPR(h)
		qp.Stats.Completed++
		qp.deliver(qp.sendCQ, CQE{WRID: h.ID, QPN: qp.Num, Status: WCSuccess, Op: h.Op, ByteLen: h.Len})
		qp.rnic.freeWQE(h)
		progressed = true
	}
	if progressed {
		qp.afterProgress()
	}
}

// afterProgress follows completions: IRN releases their BDP charges,
// the timeout re-arms for the new oldest request (or stops when none is
// left) and the pump sends what the freed window allows.
func (qp *QP) afterProgress() {
	if qp.irn != nil {
		qp.irnReleaseTX()
	}
	if qp.out.Len() == 0 {
		qp.rnic.busyQPs--
		qp.toTimer.Cancel()
	} else {
		qp.armTimeout()
	}
	qp.pump()
}

// fatal moves the QP to the Error state: the culprit WR completes with
// status, everything else flushes. Every WR returns to the free list.
func (qp *QP) fatal(culprit *wqe, status WCStatus) {
	qp.state = QPError
	qp.toTimer.Cancel()
	qp.resumeTimer.Cancel()
	if qp.out.Len() > 0 {
		qp.rnic.busyQPs--
	}
	qp.deliver(qp.sendCQ, CQE{WRID: culprit.ID, QPN: qp.Num, Status: status, Op: culprit.Op})
	for _, o := range qp.out.Items() {
		qp.releaseNPR(o)
		if o != culprit {
			qp.deliver(qp.sendCQ, CQE{WRID: o.ID, QPN: qp.Num, Status: WCFlushErr, Op: o.Op})
		}
		qp.rnic.freeWQE(o)
	}
	for _, w := range qp.sq.Items() {
		qp.deliver(qp.sendCQ, CQE{WRID: w.ID, QPN: qp.Num, Status: WCFlushErr, Op: w.Op})
		qp.rnic.freeWQE(w)
	}
	qp.out.Clear()
	qp.sq.Clear()
}
