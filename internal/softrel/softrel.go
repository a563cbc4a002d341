// Package softrel implements software reliability over the Unreliable
// Datagram transport: request/response RPCs with application-level
// sequence numbers, coarse-grained software timeouts and bounded retries
// — the approach of Koop et al. and Kalia et al. that §VIII-C contrasts
// with hardware Reliable Connection.
//
// Its relevance to the paper's lessons: the RC hardware timeout is at
// best ≈500 ms on most devices (Figure 2), so a single lost packet under
// packet damming stalls for that long. A software timer can be set to a
// few RTTs, detecting loss 2–3 orders of magnitude faster — at the cost
// of application-level retries.
package softrel

import (
	"errors"
	"fmt"

	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// ErrTimeout is returned when an RPC exhausts its retries.
var ErrTimeout = errors.New("softrel: rpc retries exhausted")

// Config tunes the software-reliability client.
type Config struct {
	// Timeout is the per-attempt software timeout. Kalia et al. size it
	// coarsely (several RTTs) because loss is rare on lossless fabrics.
	Timeout sim.Time
	// Retries is the number of retransmissions before giving up.
	Retries int
}

// recvDepth is how many receive buffers each endpoint keeps posted.
const recvDepth = 64

// DefaultConfig uses a 1 ms timeout and 5 retries.
func DefaultConfig() Config {
	return Config{Timeout: sim.Millisecond, Retries: 5}
}

// Handler processes one RPC request payload and returns the response
// payload. A nil Handler echoes.
type Handler func(req []uint64) []uint64

// Server answers RPCs on a UD QP: every request datagram is answered with
// a response datagram carrying the same sequence number and the handler's
// response payload.
type Server struct {
	nic     *rnic.RNIC
	qp      *rnic.UDQP
	cq      *rnic.CQ
	buf     hostmem.Addr
	cfg     Config
	handler Handler
	// HandleCost is charged per request (server CPU); zero by default.
	HandleCost sim.Time

	// Handled counts served requests.
	Handled uint64
}

// NewServer creates and starts an RPC echo server.
func NewServer(nic *rnic.RNIC, cfg Config) *Server {
	return NewServerWithHandler(nic, cfg, nil)
}

// NewServerWithHandler creates and starts an RPC server with an
// application handler.
func NewServerWithHandler(nic *rnic.RNIC, cfg Config, h Handler) *Server {
	cq := rnic.NewCQ(nic.Engine())
	s := &Server{nic: nic, cq: cq, cfg: cfg, handler: h}
	s.qp = nic.CreateUDQP(cq, cq)
	s.buf = nic.AS.Alloc(recvDepth * hostmem.PageSize)
	nic.AS.Touch(s.buf, recvDepth*hostmem.PageSize)
	nic.RegisterMR(s.buf, recvDepth*hostmem.PageSize, false)
	s.repost()
	nic.Engine().Go("softrel-server", s.loop)
	return s
}

// QPN returns the server's QP number (the RPC address).
func (s *Server) QPN() uint32 { return s.qp.Num }

// LID returns the server's port LID.
func (s *Server) LID() uint16 { return s.nic.LID() }

func (s *Server) repost() {
	for s.qp.RecvDepth() < recvDepth {
		off := hostmem.Addr(s.qp.RecvDepth()%recvDepth) * hostmem.PageSize
		s.qp.PostRecv(rnic.RecvWR{Addr: s.buf + off, Len: hostmem.PageSize})
	}
}

func (s *Server) loop(p *sim.Proc) {
	var wc [1]rnic.CQE
	for {
		s.cq.WaitN(p, wc[:])
		e := wc[0]
		if !e.Recv {
			continue
		}
		s.Handled++
		s.repost()
		if s.HandleCost > 0 {
			p.Sleep(s.HandleCost)
		}
		resp := e.AppWords
		if s.handler != nil {
			resp = s.handler(e.AppWords)
		}
		// Answer to the sender (LID and QPN come with the datagram);
		// the response reuses the request's sequence number.
		s.qp.PostSend(rnic.UDSendWR{
			DestLID: e.SrcLID, DestQPN: e.SrcQPN,
			Local: s.buf, Len: e.ByteLen, AppSeq: e.AppSeq, AppWords: resp,
		})
	}
}

// Client issues RPCs with software reliability.
type Client struct {
	nic *rnic.RNIC
	qp  *rnic.UDQP
	cq  *rnic.CQ
	buf hostmem.Addr
	cfg Config

	nextSeq uint64
	// responses holds response payloads by sequence number.
	responses map[uint64][]uint64
	seen      map[uint64]bool

	// Stats.
	Calls       uint64
	Retransmits uint64
	Failures    uint64
}

// NewClient creates an RPC client on a node.
func NewClient(nic *rnic.RNIC, cfg Config) *Client {
	cq := rnic.NewCQ(nic.Engine())
	c := &Client{nic: nic, cq: cq, cfg: cfg, responses: make(map[uint64][]uint64), seen: make(map[uint64]bool)}
	c.qp = nic.CreateUDQP(cq, cq)
	c.buf = nic.AS.Alloc(recvDepth * hostmem.PageSize)
	nic.AS.Touch(c.buf, recvDepth*hostmem.PageSize)
	nic.RegisterMR(c.buf, recvDepth*hostmem.PageSize, false)
	for i := 0; i < recvDepth; i++ {
		c.qp.PostRecv(rnic.RecvWR{Addr: c.buf + hostmem.Addr(i)*hostmem.PageSize, Len: hostmem.PageSize})
	}
	return c
}

// drain collects arrived responses.
func (c *Client) drain() {
	var buf [16]rnic.CQE
	for {
		n := c.cq.Poll(buf[:])
		for _, e := range buf[:n] {
			if e.Recv {
				c.responses[e.AppSeq] = e.AppWords
				c.seen[e.AppSeq] = true
				c.qp.PostRecv(rnic.RecvWR{Addr: c.buf, Len: hostmem.PageSize})
			}
		}
		if n < len(buf) {
			return
		}
	}
}

// Call performs one RPC of size bytes to the server at (lid, qpn): send,
// wait for the matching response with the software timeout, retransmit on
// expiry, fail after the retry budget.
func (c *Client) Call(p *sim.Proc, lid uint16, qpn uint32, size int) error {
	_, err := c.CallPayload(p, lid, qpn, size, nil)
	return err
}

// CallPayload performs one RPC carrying a small inline payload and
// returns the server's response payload.
func (c *Client) CallPayload(p *sim.Proc, lid uint16, qpn uint32, size int, req []uint64) ([]uint64, error) {
	c.Calls++
	seq := c.nextSeq
	c.nextSeq++
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.Retransmits++
		}
		c.qp.PostSend(rnic.UDSendWR{
			DestLID: lid, DestQPN: qpn,
			Local: c.buf, Len: size, AppSeq: seq, AppWords: req,
		})
		ok := p.WaitTimeout(c.cq.Cond(), c.cfg.Timeout, func() bool {
			c.drain()
			return c.seen[seq]
		})
		if ok {
			resp := c.responses[seq]
			delete(c.responses, seq)
			delete(c.seen, seq)
			return resp, nil
		}
	}
	c.Failures++
	return nil, fmt.Errorf("%w (seq %d after %d attempts)", ErrTimeout, seq, c.cfg.Retries+1)
}
