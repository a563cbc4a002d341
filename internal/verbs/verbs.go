// Package verbs is the user-facing InfiniBand verbs API of the simulator,
// shaped after libibverbs: contexts, protection domains, memory
// registration with ODP access flags, queue-pair creation and the
// INIT→RTR→RTS modify sequence with the attributes the paper varies
// (timeout, retry_cnt, min_rnr_timer), posting RDMA READs and polling
// completions. It is a thin, validating layer over internal/rnic.
package verbs

import (
	"errors"
	"fmt"

	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
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

// LID returns the port LID.
func (c *Context) LID() uint16 { return c.nic.LID() }

// AllocPD allocates a protection domain.
func (c *Context) AllocPD() *PD { return &PD{ctx: c} }

// CreateCQ creates a completion queue.
func (c *Context) CreateCQ() *CQ {
	return &CQ{inner: rnic.NewCQ(c.nic.Engine())}
}

// PD is a protection domain: MRs and QPs hang off it.
type PD struct {
	ctx *Context
}

// MR is a registered memory region.
type MR struct {
	inner *rnic.MR
	// PinTime is the virtual time the registration spent pinning pages
	// (zero for ODP registrations) — callers running inside a process
	// should Sleep it to model the registration cost.
	PinTime sim.Time
}

// RegisterMR registers [addr, addr+len). With AccessOnDemand it creates
// an on-demand region following the device's memory mode: Explicit ODP
// normally, an NP-RDMA shadow-table region on an NPR device, or a
// pinned region on a pin device; otherwise it pins the pages.
func (p *PD) RegisterMR(addr hostmem.Addr, length int, flags AccessFlags) (*MR, error) {
	if length <= 0 {
		return nil, fmt.Errorf("%w: non-positive MR length %d", ErrBadAttr, length)
	}
	inner, cost := p.ctx.nic.RegisterMR(addr, length, flags&AccessOnDemand != 0)
	return &MR{inner: inner, PinTime: cost}, nil
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

// QPState mirrors ibv_qp_state for the states the simulator models.
type QPState int

// QP states.
const (
	StateReset QPState = iota
	StateInit
	StateRTR
	StateRTS
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
	inner *rnic.QP
	state QPState
	attr  QPAttr
}

// CreateQP creates a queue pair in the RESET state.
func (p *PD) CreateQP(sendCQ, recvCQ *CQ) *QP {
	return &QP{inner: p.ctx.nic.CreateQP(sendCQ.inner, recvCQ.inner)}
}

// Num returns the queue pair number.
func (q *QP) Num() uint32 { return q.inner.Num }

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

func (q *QP) post(wr rnic.SendWR) error {
	if q.state != StateRTS {
		return ErrBadState
	}
	q.inner.PostSend(wr)
	return nil
}
