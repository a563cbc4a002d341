// Package ucx is a minimal UCX-like communication layer over the RNIC
// model: workers, endpoints, blocking and asynchronous RMA (GET/PUT) and
// asynchronous SENDs into receives the peer posted. It mirrors the
// configuration surface the paper uses to toggle ODP from the
// environment (§VII: UCX prioritizes ODP over direct registration when
// enabled, with a default minimal RNR NAK delay of 0.96 ms and
// C_ACK = 18).
package ucx

import (
	"fmt"

	"odpsim/internal/fifo"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// Config mirrors the UCX environment variables that matter here.
type Config struct {
	// EnableODP makes every registration an ODP registration, like
	// UCX_IB_REG_METHODS=odp. The paper notes UCX even *prioritizes*
	// ODP when available — which is how the authors ran into the
	// pitfalls unknowingly.
	EnableODP bool
	// MinRNRDelay is the minimal RNR NAK delay (default 0.96 ms).
	MinRNRDelay sim.Time
	// CACK is the Local ACK Timeout exponent (default 18).
	CACK int
	// RetryCnt is C_retry (default 7).
	RetryCnt int
}

// DefaultConfig returns the UCX defaults reported in §VII.
func DefaultConfig() Config {
	return Config{
		MinRNRDelay: sim.FromMillis(0.96),
		CACK:        18,
		RetryCnt:    7,
	}
}

// Context binds a configuration to one node's RNIC.
type Context struct {
	nic *rnic.RNIC
	cfg Config
}

// NewContext creates a UCX context on a node.
func NewContext(nic *rnic.RNIC, cfg Config) *Context {
	return &Context{nic: nic, cfg: cfg}
}

// Worker is a progress context: one CQ plus completion bookkeeping.
type Worker struct {
	ctx    *Context
	cq     *rnic.CQ
	nextID uint64
	// done is the completion table of requests doneBase, doneBase+1, …
	// Request IDs are issued sequentially, so the table is dense and
	// indexed by ID−doneBase; claimed entries leave from the front, so
	// it spans only requests still outstanding or unclaimed.
	done     fifo.Queue[completion]
	doneBase uint64

	// arenaNext links the engine's worker arena (NewWorker).
	arenaNext *Worker
}

// completion is what a waiter needs from a request's CQE.
type completion struct {
	status rnic.WCStatus
	// completed is set when the CQE is drained, claimed when a waiter
	// has taken the result.
	completed, claimed bool
}

// arenas are the engine-generation arenas (see sim.Arena) workers and
// endpoints are taken from, kept in the engine's Aux storage, and the
// blocks new endpoints are carved from.
type arenas struct {
	workers   sim.Arena[Worker]
	endpoints sim.Arena[Endpoint]
	epBlocks  sim.Blocks[Endpoint]
}

// endpointBlock caps a block of fresh endpoints at 341: 8,184 bytes,
// which fills one 8 KiB size class.
const endpointBlock = 341

// arenasKey is the engine Aux key the arenas live under.
const arenasKey = "ucx.arenas"

func arenasFor(eng *sim.Engine) *arenas {
	a, _ := eng.Aux(arenasKey).(*arenas)
	if a == nil {
		a = &arenas{}
		a.workers.Link = func(w *Worker) **Worker { return &w.arenaNext }
		a.endpoints.Link = func(e *Endpoint) **Endpoint { return &e.arenaNext }
		a.epBlocks.Make = func(n int) []Endpoint { return make([]Endpoint, n) }
		a.epBlocks.Max = endpointBlock
		eng.SetAux(arenasKey, a)
	}
	return a
}

// NewWorker creates a worker, taking it from the engine's worker arena:
// a recycled worker keeps its completion table's storage, cleared, and
// nothing else.
func (c *Context) NewWorker() *Worker {
	eng := c.nic.Engine()
	a := &arenasFor(eng).workers
	w := a.Take(eng)
	if w == nil {
		w = new(Worker)
		a.Add(w)
	} else {
		w.done.Clear()
		*w = Worker{done: w.done, arenaNext: w.arenaNext}
	}
	w.ctx, w.cq = c, rnic.NewCQ(eng)
	return w
}

// RegisterBuffer registers a buffer according to the context's ODP
// setting and returns the virtual-time registration cost the caller
// should charge (zero for ODP — that is its appeal). With EnableODP the
// registration is on demand: it follows the device's memory mode, so an
// NPR- or pin-mode node reroutes the same UCX configuration through its
// own translation path (cost nonzero again on a pin-mode node).
func (w *Worker) RegisterBuffer(addr hostmem.Addr, length int) sim.Time {
	_, cost := w.ctx.nic.RegisterMR(addr, length, w.ctx.cfg.EnableODP)
	return cost
}

// Endpoint is a connection from one worker to a peer worker.
type Endpoint struct {
	worker *Worker
	qp     *rnic.QP
	// arenaNext links the engine's endpoint arena (Connect).
	arenaNext *Endpoint
}

// newEndpoint takes an endpoint of w over qp from the engine's arena,
// or from the endpoint blocks when every member is taken.
func newEndpoint(w *Worker, qp *rnic.QP) *Endpoint {
	eng := w.ctx.nic.Engine()
	as := arenasFor(eng)
	e := as.endpoints.Take(eng)
	if e == nil {
		e = as.epBlocks.New()
		as.endpoints.Add(e)
	}
	*e = Endpoint{worker: w, qp: qp, arenaNext: e.arenaNext}
	return e
}

// QP exposes the underlying queue pair (stats, state).
func (e *Endpoint) QP() *rnic.QP { return e.qp }

// Connect wires a QP pair between two workers using both contexts'
// connection attributes and returns the two endpoints.
func Connect(a, b *Worker) (*Endpoint, *Endpoint) {
	qa := a.ctx.nic.CreateQP(a.cq, a.cq)
	qb := b.ctx.nic.CreateQP(b.cq, b.cq)
	pa := rnic.ConnParams{CACK: a.ctx.cfg.CACK, RetryCount: a.ctx.cfg.RetryCnt, MinRNRDelay: a.ctx.cfg.MinRNRDelay}
	pb := rnic.ConnParams{CACK: b.ctx.cfg.CACK, RetryCount: b.ctx.cfg.RetryCnt, MinRNRDelay: b.ctx.cfg.MinRNRDelay}
	rnic.ConnectPair(qa, qb, pa, pb)
	return newEndpoint(a, qa), newEndpoint(b, qb)
}

// Request identifies an in-flight asynchronous operation.
type Request uint64

// issue hands out the next request ID and opens its completion slot.
func (w *Worker) issue() uint64 {
	id := w.nextID
	w.nextID++
	w.done.Push(completion{})
	return id
}

// drain moves completions from the CQ into the worker's completion
// table. Receive CQEs are skipped: their WRID is the 0 PostRecv posts
// them with, so they must not complete request 0.
func (w *Worker) drain() {
	var buf [16]rnic.CQE
	for {
		n := w.cq.Poll(buf[:])
		for i := range buf[:n] {
			e := &buf[i]
			if e.Recv {
				continue
			}
			if slot := w.slot(e.WRID); slot != nil {
				*slot = completion{status: e.Status, completed: true}
			}
		}
		if n < len(buf) {
			return
		}
	}
}

// slot returns request id's completion-table entry, or nil when id was
// not issued by this worker or has already been claimed.
func (w *Worker) slot(id uint64) *completion {
	if id < w.doneBase || id-w.doneBase >= uint64(w.done.Len()) {
		return nil
	}
	c := &w.done.Items()[id-w.doneBase]
	if c.claimed {
		return nil
	}
	return c
}

// claim drains the CQ and, once request r has completed, takes its
// result and trims claimed entries from the front of the table.
func (w *Worker) claim(r Request) (completion, bool) {
	w.drain()
	c := w.slot(uint64(r))
	if c == nil || !c.completed {
		return completion{}, false
	}
	got := *c
	c.claimed = true
	for w.done.Len() > 0 && w.done.Front().claimed {
		w.done.Pop()
		w.doneBase++
	}
	return got, true
}

func statusErr(r Request, c completion) error {
	if c.status == rnic.WCSuccess {
		return nil
	}
	return fmt.Errorf("ucx: operation %d failed: %s", uint64(r), c.status)
}

// wait blocks the process until request r completes and returns its
// completion.
func (w *Worker) wait(p *sim.Proc, r Request) completion {
	var got completion
	p.Wait(w.cq.Cond(), func() bool {
		var ok bool
		got, ok = w.claim(r)
		return ok
	})
	return got
}

// GetAsync starts an RMA GET (RDMA READ) and returns its request handle.
func (e *Endpoint) GetAsync(local, remote hostmem.Addr, length int) Request {
	id := e.worker.issue()
	e.qp.PostSend(rnic.SendWR{ID: id, Op: rnic.OpRead, LocalAddr: local, RemoteAddr: remote, Len: length})
	return Request(id)
}

// PutAsync starts an RMA PUT (RDMA WRITE).
func (e *Endpoint) PutAsync(local, remote hostmem.Addr, length int) Request {
	id := e.worker.issue()
	e.qp.PostSend(rnic.SendWR{ID: id, Op: rnic.OpWrite, LocalAddr: local, RemoteAddr: remote, Len: length})
	return Request(id)
}

// SendAsync starts a two-sided send (the peer must have posted a recv).
func (e *Endpoint) SendAsync(local hostmem.Addr, length int) Request {
	id := e.worker.issue()
	e.qp.PostSend(rnic.SendWR{ID: id, Op: rnic.OpSend, LocalAddr: local, Len: length})
	return Request(id)
}

// PostRecv posts a receive buffer on the endpoint.
func (e *Endpoint) PostRecv(addr hostmem.Addr, length int) {
	e.qp.PostRecv(rnic.RecvWR{ID: 0, Addr: addr, Len: length})
}

// Wait blocks the process until the request completes, returning its
// error status.
func (w *Worker) Wait(p *sim.Proc, r Request) error {
	return statusErr(r, w.wait(p, r))
}

// WaitAll blocks until every request completes; it returns the first
// error encountered (still waiting for the rest).
func (w *Worker) WaitAll(p *sim.Proc, rs []Request) error {
	var firstErr error
	for _, r := range rs {
		if err := w.Wait(p, r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get performs a blocking RMA GET.
func (e *Endpoint) Get(p *sim.Proc, local, remote hostmem.Addr, length int) error {
	return e.worker.Wait(p, e.GetAsync(local, remote, length))
}

// Put performs a blocking RMA PUT.
func (e *Endpoint) Put(p *sim.Proc, local, remote hostmem.Addr, length int) error {
	return e.worker.Wait(p, e.PutAsync(local, remote, length))
}
