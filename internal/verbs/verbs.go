// Package verbs is the user-facing InfiniBand verbs API of the simulator,
// shaped after libibverbs: contexts, protection domains, memory
// registration with ODP access flags, queue-pair creation and the
// INIT→RTR→RTS modify sequence with the attributes the paper varies
// (timeout, retry_cnt, min_rnr_timer), posting work requests and polling
// completions. It is a thin, validating layer over internal/rnic.
package verbs

import (
	"errors"
	"fmt"

	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// Access flags for RegisterMR, mirroring IBV_ACCESS_*.
type AccessFlags uint32

// Access flag values.
const (
	AccessLocalWrite AccessFlags = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	// AccessOnDemand requests an ODP registration (IBV_ACCESS_ON_DEMAND).
	AccessOnDemand
)

// Errors returned by the verbs layer.
var (
	ErrBadState   = errors.New("verbs: queue pair is not in the required state")
	ErrBadAttr    = errors.New("verbs: invalid attribute")
	ErrNotInOrder = errors.New("verbs: modify sequence must be RESET→INIT→RTR→RTS")
)

// Context is an opened device.
type Context struct {
	nic *rnic.RNIC
}

// Open wraps an RNIC into a verbs context.
func Open(nic *rnic.RNIC) *Context { return &Context{nic: nic} }

// NIC exposes the underlying device (for counters and capture use).
func (c *Context) NIC() *rnic.RNIC { return c.nic }

// Telemetry returns the device's counter registry, the moral
// equivalent of reading its /sys/class/infiniband counters.
func (c *Context) Telemetry() *telemetry.Registry { return c.nic.Telemetry() }

// LID returns the port LID.
func (c *Context) LID() uint16 { return c.nic.LID() }

// AllocPD allocates a protection domain.
func (c *Context) AllocPD() *PD { return &PD{ctx: c} }

// CreateCQ creates a completion queue.
func (c *Context) CreateCQ() *CQ {
	return &CQ{inner: rnic.NewCQ(c.nic.Engine())}
}

// EnableImplicitODP turns on Implicit ODP for the whole address space:
// no explicit registration is needed and every access may fault
// (ibv_reg_mr with IBV_ACCESS_ON_DEMAND over the full range).
func (c *Context) EnableImplicitODP() { c.nic.EnableImplicitODP() }

// PD is a protection domain: MRs and QPs hang off it.
type PD struct {
	ctx *Context
	mrs []*MR
}

// MR is a registered memory region.
type MR struct {
	pd    *PD
	inner *rnic.MR
	// PinTime is the virtual time the registration spent pinning pages
	// (zero for ODP registrations) — callers running inside a process
	// should Sleep it to model the registration cost.
	PinTime sim.Time
}

// Addr returns the region's base address.
func (m *MR) Addr() hostmem.Addr { return m.inner.Addr }

// Len returns the region's length.
func (m *MR) Len() int { return m.inner.Len }

// RegisterMR registers [addr, addr+len). With AccessOnDemand it creates
// an on-demand region following the device's memory mode: Explicit ODP
// normally, an NP-RDMA shadow-table region on an NPR device, or a
// pinned region on a pin device; otherwise it pins the pages.
func (p *PD) RegisterMR(addr hostmem.Addr, length int, flags AccessFlags) (*MR, error) {
	if length <= 0 {
		return nil, fmt.Errorf("%w: non-positive MR length %d", ErrBadAttr, length)
	}
	inner, cost := p.ctx.nic.RegisterMR(addr, length, flags&AccessOnDemand != 0)
	mr := &MR{pd: p, inner: inner, PinTime: cost}
	p.mrs = append(p.mrs, mr)
	return mr, nil
}

// Deregister removes the region.
func (m *MR) Deregister() { m.pd.ctx.nic.DeregisterMR(m.inner) }

// Advise prefetches the region's pages into qp's ODP context
// (ibv_advise_mr with IBV_ADVISE_MR_ADVICE_PREFETCH). A no-op for
// regions that do not translate through ODP.
func (m *MR) Advise(qp *QP) {
	if m.inner.Kind == rnic.KindODP {
		m.pd.ctx.nic.AdviseMR(qp.inner.Num, m.inner.Addr, m.inner.Len)
	}
}

// CQ is a completion queue.
type CQ struct {
	inner *rnic.CQ
}

// Poll returns up to max completions (all if max <= 0) in a new slice.
func (q *CQ) Poll(max int) []rnic.CQE {
	n := q.inner.Len()
	if max > 0 && max < n {
		n = max
	}
	out := make([]rnic.CQE, n)
	q.inner.Poll(out)
	return out
}

// WaitN blocks the simulated process until n completions arrive and
// returns them in a new slice.
func (q *CQ) WaitN(p *sim.Proc, n int) []rnic.CQE {
	out := make([]rnic.CQE, n)
	q.inner.WaitN(p, out)
	return out
}

// Inner exposes the underlying CQ for integration with internal packages.
func (q *CQ) Inner() *rnic.CQ { return q.inner }

// QPState mirrors ibv_qp_state for the states the simulator models.
type QPState int

// QP states.
const (
	StateReset QPState = iota
	StateInit
	StateRTR
	StateRTS
	StateError
)

// QPAttr carries the modify-QP attributes used on the RTR/RTS transitions.
type QPAttr struct {
	// DestLID and DestQPNum identify the remote endpoint (RTR).
	DestLID   uint16
	DestQPNum uint32
	// MinRNRTimer is the minimal RNR NAK delay this QP advertises as a
	// responder (RTR).
	MinRNRTimer sim.Time
	// Timeout is the Local ACK Timeout exponent C_ACK (RTS); 0 disables.
	Timeout int
	// RetryCnt is C_retry (RTS).
	RetryCnt int
	// MaxRdAtomic caps outstanding READs (0 = device default).
	MaxRdAtomic int
}

// QP is a queue pair.
type QP struct {
	pd    *PD
	inner *rnic.QP
	state QPState
	attr  QPAttr
}

// CreateQP creates a queue pair in the RESET state.
func (p *PD) CreateQP(sendCQ, recvCQ *CQ) *QP {
	return &QP{pd: p, inner: p.ctx.nic.CreateQP(sendCQ.inner, recvCQ.inner)}
}

// Num returns the queue pair number.
func (q *QP) Num() uint32 { return q.inner.Num }

// State returns the verbs-level state.
func (q *QP) State() QPState {
	if q.inner.State() == rnic.QPError {
		return StateError
	}
	return q.state
}

// Stats exposes requester counters.
func (q *QP) Stats() rnic.QPStats { return q.inner.Stats }

// Inner exposes the underlying QP for integration with internal packages.
func (q *QP) Inner() *rnic.QP { return q.inner }

// ToReset returns the QP to RESET from any state, clearing its transport
// state; reconnect with Connect or the modify sequence afterwards.
func (q *QP) ToReset() {
	q.inner.Reset()
	q.state = StateReset
	q.attr = QPAttr{}
}

// ToInit performs RESET→INIT.
func (q *QP) ToInit() error {
	if q.state != StateReset {
		return ErrNotInOrder
	}
	q.state = StateInit
	return nil
}

// ToRTR performs INIT→RTR, binding the remote endpoint.
func (q *QP) ToRTR(attr QPAttr) error {
	if q.state != StateInit {
		return ErrNotInOrder
	}
	q.attr.DestLID = attr.DestLID
	q.attr.DestQPNum = attr.DestQPNum
	q.attr.MinRNRTimer = attr.MinRNRTimer
	q.state = StateRTR
	return nil
}

// ToRTS performs RTR→RTS, setting the requester timeout attributes and
// activating the connection.
func (q *QP) ToRTS(attr QPAttr) error {
	if q.state != StateRTR {
		return ErrNotInOrder
	}
	if attr.Timeout < 0 || attr.Timeout > 31 {
		return fmt.Errorf("%w: timeout exponent %d", ErrBadAttr, attr.Timeout)
	}
	if attr.RetryCnt < 0 || attr.RetryCnt > 7 {
		return fmt.Errorf("%w: retry_cnt %d", ErrBadAttr, attr.RetryCnt)
	}
	q.attr.Timeout = attr.Timeout
	q.attr.RetryCnt = attr.RetryCnt
	q.attr.MaxRdAtomic = attr.MaxRdAtomic
	q.inner.Connect(q.attr.DestLID, q.attr.DestQPNum, rnic.ConnParams{
		CACK:        q.attr.Timeout,
		RetryCount:  q.attr.RetryCnt,
		MinRNRDelay: q.attr.MinRNRTimer,
		MaxRdAtomic: q.attr.MaxRdAtomic,
	})
	q.state = StateRTS
	return nil
}

// Connect runs the full RESET→INIT→RTR→RTS sequence in one call.
func (q *QP) Connect(attr QPAttr) error {
	if err := q.ToInit(); err != nil {
		return err
	}
	if err := q.ToRTR(attr); err != nil {
		return err
	}
	return q.ToRTS(attr)
}

// PostRead posts an RDMA READ work request.
func (q *QP) PostRead(id uint64, local, remote hostmem.Addr, length int) error {
	return q.post(rnic.SendWR{ID: id, Op: rnic.OpRead, LocalAddr: local, RemoteAddr: remote, Len: length})
}

// PostWrite posts an RDMA WRITE work request.
func (q *QP) PostWrite(id uint64, local, remote hostmem.Addr, length int) error {
	return q.post(rnic.SendWR{ID: id, Op: rnic.OpWrite, LocalAddr: local, RemoteAddr: remote, Len: length})
}

// PostFetchAdd posts an 8-byte fetch-and-add; the original value arrives
// in the completion's AtomicOrig.
func (q *QP) PostFetchAdd(id uint64, local, remote hostmem.Addr, add uint64) error {
	return q.post(rnic.SendWR{ID: id, Op: rnic.OpAtomicFA, LocalAddr: local, RemoteAddr: remote, Len: 8, CompareAdd: add})
}

// PostCmpSwap posts an 8-byte compare-and-swap.
func (q *QP) PostCmpSwap(id uint64, local, remote hostmem.Addr, compare, swap uint64) error {
	return q.post(rnic.SendWR{ID: id, Op: rnic.OpAtomicCS, LocalAddr: local, RemoteAddr: remote, Len: 8, CompareAdd: compare, Swap: swap})
}

// PostSendMsg posts a two-sided SEND.
func (q *QP) PostSendMsg(id uint64, local hostmem.Addr, length int) error {
	return q.post(rnic.SendWR{ID: id, Op: rnic.OpSend, LocalAddr: local, Len: length})
}

// PostRecv posts a receive buffer.
func (q *QP) PostRecv(id uint64, addr hostmem.Addr, length int) error {
	if q.state == StateReset {
		return ErrBadState
	}
	q.inner.PostRecv(rnic.RecvWR{ID: id, Addr: addr, Len: length})
	return nil
}

func (q *QP) post(wr rnic.SendWR) error {
	if q.state != StateRTS {
		return ErrBadState
	}
	q.inner.PostSend(wr)
	return nil
}

// UDQP is a verbs-level Unreliable Datagram queue pair. UD QPs need no
// connection: the destination address travels with each work request.
type UDQP struct {
	pd    *PD
	inner *rnic.UDQP
}

// CreateUDQP creates a datagram QP bound to the completion queues.
func (p *PD) CreateUDQP(sendCQ, recvCQ *CQ) *UDQP {
	return &UDQP{pd: p, inner: p.ctx.nic.CreateUDQP(sendCQ.inner, recvCQ.inner)}
}

// Num returns the queue pair number.
func (q *UDQP) Num() uint32 { return q.inner.Num }

// Inner exposes the underlying UD QP.
func (q *UDQP) Inner() *rnic.UDQP { return q.inner }

// PostSend transmits one datagram to (destLID, destQPN).
func (q *UDQP) PostSend(id uint64, destLID uint16, destQPN uint32, local hostmem.Addr, length int) {
	q.inner.PostSend(rnic.UDSendWR{ID: id, DestLID: destLID, DestQPN: destQPN, Local: local, Len: length})
}

// PostRecv posts a receive buffer.
func (q *UDQP) PostRecv(id uint64, addr hostmem.Addr, length int) {
	q.inner.PostRecv(rnic.RecvWR{ID: id, Addr: addr, Len: length})
}
