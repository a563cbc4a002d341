package rnic

import (
	"fmt"

	"odpsim/internal/fifo"
	"odpsim/internal/sim"
)

// WCStatus is a work completion status code, mirroring ibv_wc_status.
type WCStatus int32

// Completion statuses.
const (
	WCSuccess WCStatus = iota
	// WCRetryExcErr is IBV_WC_RETRY_EXC_ERR: the retransmission count
	// for a request exceeded Retry Count — the error the paper's
	// wrong-LID experiment and failed SparkUCX runs abort with.
	WCRetryExcErr
	// WCRemoteAccessErr is IBV_WC_REM_ACCESS_ERR.
	WCRemoteAccessErr
	// WCFlushErr is IBV_WC_WR_FLUSH_ERR: the QP entered the Error state
	// with this request still queued.
	WCFlushErr
	// WCRNRRetryExcErr is IBV_WC_RNR_RETRY_EXC_ERR: the RNR retry budget
	// was exhausted.
	WCRNRRetryExcErr

	// numWCStatuses sizes per-status counter arrays.
	numWCStatuses = int(WCRNRRetryExcErr) + 1
)

// String implements fmt.Stringer using the verbs constant names.
func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "IBV_WC_SUCCESS"
	case WCRetryExcErr:
		return "IBV_WC_RETRY_EXC_ERR"
	case WCRemoteAccessErr:
		return "IBV_WC_REM_ACCESS_ERR"
	case WCFlushErr:
		return "IBV_WC_WR_FLUSH_ERR"
	case WCRNRRetryExcErr:
		return "IBV_WC_RNR_RETRY_EXC_ERR"
	default:
		return fmt.Sprintf("WCStatus(%d)", int(s))
	}
}

// CQE is a completion queue entry.
type CQE struct {
	WRID    uint64
	QPN     uint32
	Status  WCStatus
	Op      SendOp
	ByteLen int
	// Recv marks completions of receive work requests.
	Recv bool
	// SrcQPN and SrcLID identify the sender (receive completions on UD,
	// where they come from the datagram's GRH/DETH).
	SrcQPN uint32
	SrcLID uint16
	// AppSeq carries the application header of a UD datagram.
	AppSeq uint64
	// AppWords carries a UD datagram's small inline payload.
	AppWords []uint64
	// AtomicOrig is the original value returned by an atomic operation.
	AtomicOrig uint64
	At         sim.Time
}

// CQ is a completion queue. Processes block on it with WaitN or
// Proc.Wait on Cond; callback clients park on Cond().Notify.
type CQ struct {
	eng     *sim.Engine
	entries fifo.Queue[CQE]
	cond    *sim.Cond
	// Completed counts all CQEs ever pushed (polled or not).
	Completed uint64

	// arenaNext links the engine's CQ arena (NewCQ).
	arenaNext *CQ
}

// NewCQ creates a completion queue on engine eng, taking it from the
// engine's CQ arena: a recycled CQ keeps its entry storage (cleared) and
// its Cond (reset), and nothing else.
func NewCQ(eng *sim.Engine) *CQ {
	s := scratchFor(eng)
	cq := s.cqs.Take(eng)
	if cq == nil {
		cq = &CQ{eng: eng, cond: sim.NewCond(eng)}
		s.cqs.Add(cq)
		return cq
	}
	entries, cond := cq.entries, cq.cond
	entries.Clear()
	cond.Reset(eng)
	*cq = CQ{eng: eng, entries: entries, cond: cond, arenaNext: cq.arenaNext}
	return cq
}

// Cond returns the condition broadcast on every new completion; use it
// with Proc.Wait to implement blocking polls, or with Cond.Notify to
// have a callback re-poll once a completion arrives.
func (cq *CQ) Cond() *sim.Cond { return cq.cond }

// Reserve makes room for n more unpolled completions, so a holder that
// knows how many will pile up before it polls (the Figure-3 client
// reaps only after posting every operation) sizes the queue once
// instead of doubling it on the way. The room survives CQ recycling.
func (cq *CQ) Reserve(n int) { cq.entries.Reserve(n) }

// Len returns the number of unpolled completions.
func (cq *CQ) Len() int { return cq.entries.Len() }

// push appends a completion and wakes waiters.
func (cq *CQ) push(e CQE) {
	e.At = cq.eng.Now()
	cq.entries.Push(e)
	cq.Completed++
	cq.cond.Broadcast()
}

// Poll moves up to len(buf) completions, oldest first, into buf and
// returns how many it moved — ibv_poll_cq's contract: the caller owns
// buf, and the CQ keeps no reference to it.
func (cq *CQ) Poll(buf []CQE) int { return cq.entries.PopInto(buf) }

// WaitN blocks the process until len(buf) completions have been polled
// into buf: poll the CQ, and park on its Cond while it is empty. The
// Figure-3 micro-benchmark and kv-serve's clients do the same as
// callbacks (Poll, then Cond().Notify on an empty CQ), which costs no
// goroutine hand-off per wake; WaitN serves the process-based apps.
func (cq *CQ) WaitN(p *sim.Proc, buf []CQE) {
	for got := 0; got < len(buf); {
		p.Wait(cq.cond, func() bool { return cq.entries.Len() > 0 })
		got += cq.Poll(buf[got:])
	}
}
