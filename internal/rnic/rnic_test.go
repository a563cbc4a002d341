package rnic

import (
	"runtime"
	"runtime/debug"
	"testing"

	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/npr"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// harness wires a client and a server RNIC across a fabric, with one QP
// pair and a bufPages buffer on each side, over the chosen transport and
// memory mode.
type harness struct {
	eng      *sim.Engine
	fab      *fabric.Fabric
	client   *RNIC
	server   *RNIC
	cqC, cqS *CQ
	qpC, qpS *QP
	// lbuf/rbuf are the client-local and server-remote buffers.
	lbuf, rbuf hostmem.Addr
}

// transport selects the QP transport both devices run.
type transport int

const (
	rcTransport  transport = iota // go-back-N
	irnTransport                  // selective repeat (EnableIRN)
)

func (tr transport) String() string {
	if tr == irnTransport {
		return "irn"
	}
	return "rc"
}

// odpMode selects how each side's buffer is registered.
type odpMode int

const (
	noODP odpMode = iota
	serverODP
	clientODP
	bothODP
	bothNPR // NP-RDMA on both devices, default 2 MiB pool
)

func (m odpMode) String() string {
	return [...]string{"pin", "server-odp", "client-odp", "both-odp", "npr"}[m]
}

const bufPages = 8

func newHarness(t *testing.T, seed int64, prof Profile, tr transport, mode odpMode, params ConnParams) *harness {
	t.Helper()
	eng := sim.New(seed)
	fab := fabric.New(eng, fabric.DefaultConfig())
	h := &harness{
		eng:    eng,
		fab:    fab,
		client: New(fab, 1, "client", prof, hostmem.DefaultConfig()),
		server: New(fab, 2, "server", prof, hostmem.DefaultConfig()),
	}
	for _, r := range []*RNIC{h.client, h.server} {
		if tr == irnTransport {
			r.EnableIRN()
		}
		if mode == bothNPR {
			r.SetMemoryMode(KindNPR, npr.DefaultConfig())
		}
	}
	h.cqC = NewCQ(eng)
	h.cqS = NewCQ(eng)
	h.qpC = h.client.CreateQP(h.cqC, h.cqC)
	h.qpS = h.server.CreateQP(h.cqS, h.cqS)
	ConnectPair(h.qpC, h.qpS, params, params)

	const size = bufPages * hostmem.PageSize
	h.lbuf = h.client.AS.Alloc(size)
	h.rbuf = h.server.AS.Alloc(size)
	// An on-demand registration takes the device's mode: NP-RDMA on
	// bothNPR's devices, ODP on the others.
	h.client.RegisterMR(h.lbuf, size, mode == clientODP || mode == bothODP || mode == bothNPR)
	h.server.RegisterMR(h.rbuf, size, mode == serverODP || mode == bothODP || mode == bothNPR)
	return h
}

// defaultParams are the paper's §V settings: C_ACK=1 (clamped to the
// vendor minimum), C_retry=7, minimal RNR NAK delay 1.28 ms.
func defaultParams() ConnParams {
	return ConnParams{CACK: 1, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
}

func TestReadNoODP(t *testing.T) {
	h := newHarness(t, 1, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	// One round trip of a few µs.
	if h.eng.Now() > 10*sim.Microsecond {
		t.Errorf("pinned READ took %v, want a few µs", h.eng.Now())
	}
	if h.server.ReadsExecuted != 1 {
		t.Errorf("ReadsExecuted = %d", h.server.ReadsExecuted)
	}
}

func TestReadServerODPWorkflow(t *testing.T) {
	// Figure 1, left: request → RNR NAK → ≈4.5 ms wait → retransmit →
	// response.
	h := newHarness(t, 2, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.server.RNRNakSent != 1 {
		t.Errorf("RNRNakSent = %d, want 1", h.server.RNRNakSent)
	}
	if h.qpC.Stats.RNRNakReceived != 1 {
		t.Errorf("RNRNakReceived = %d", h.qpC.Stats.RNRNakReceived)
	}
	// Wait ≈ 3.5 × 1.28 ms = 4.48 ms (±5%), plus round trips.
	got := h.eng.Now()
	if got < sim.FromMillis(4.2) || got > sim.FromMillis(4.9) {
		t.Errorf("server-side ODP READ took %v, want ≈4.5 ms", got)
	}
}

func TestReadClientODPWorkflow(t *testing.T) {
	// Figure 1, right: response discarded, blind retransmission every
	// ≈0.5 ms until the page status update lands.
	h := newHarness(t, 3, ConnectX4(), rcTransport, clientODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.qpC.Stats.ClientFaultRounds == 0 {
		t.Error("expected at least one client fault round")
	}
	if h.qpC.Stats.ResponsesDiscarded == 0 {
		t.Error("expected discarded responses")
	}
	if h.server.ReadsExecuted < 2 {
		t.Errorf("server should re-execute the READ on retransmission, got %d", h.server.ReadsExecuted)
	}
	got := h.eng.Now()
	if got < sim.FromMicros(300) || got > sim.FromMillis(2) {
		t.Errorf("client-side ODP READ took %v, want ≈0.5–1.5 ms", got)
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Error("no timeout expected for a single READ")
	}
}

func TestTwoReadDammingTimeout(t *testing.T) {
	// Figure 5: a second READ posted 1 ms into the first's pending
	// window is lost and only recovers via the ≈500 ms timeout.
	h := newHarness(t, 4, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 2 {
		t.Fatalf("got %d completions", len(cqes))
	}
	for _, c := range cqes {
		if c.Status != WCSuccess {
			t.Fatalf("completion failed: %+v", c)
		}
	}
	if h.server.DammedDrops == 0 {
		t.Error("expected the quirk to dam the second request")
	}
	if h.qpC.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", h.qpC.Stats.Timeouts)
	}
	// T_tr(16) = 268 ms, T_o ≈ 1.86× ⇒ ≈500 ms total.
	got := h.eng.Now()
	if got < sim.FromMillis(300) || got > sim.FromMillis(1200) {
		t.Errorf("execution took %v, want several hundred ms", got)
	}
}

func TestTwoReadNoQuirkNoTimeout(t *testing.T) {
	// Ablation / ConnectX-6: without the quirk the same schedule
	// completes right after the RNR wait.
	h := newHarness(t, 4, ConnectX6(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 on ConnectX-6", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(10) {
		t.Errorf("took %v, want ≈5 ms", h.eng.Now())
	}
}

func TestTwoReadOutsideWindowNoTimeout(t *testing.T) {
	// Figure 6a: beyond the ≈4.5 ms pending window, no damming.
	h := newHarness(t, 5, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.FromMillis(5.5), func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 outside the window", h.qpC.Stats.Timeouts)
	}
}

func TestTwoReadImmediateNoTimeout(t *testing.T) {
	// Figure 4 at interval ≈ 0: the second request reaches the wire
	// before the RNR NAK arrives, so it is a legitimate retransmission
	// at resume and survives.
	h := newHarness(t, 6, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 at interval 0", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(10) {
		t.Errorf("took %v", h.eng.Now())
	}
}

func TestThreeReadNakSeqRescue(t *testing.T) {
	// Figure 8: the third READ, posted after the pending window, makes
	// the responder notice the PSN gap and NAK, rescuing the dammed
	// second READ without a timeout.
	h := newHarness(t, 7, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.FromMillis(2.5), func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.After(sim.FromMillis(5.0), func() {
		h.qpC.PostSend(SendWR{ID: 3, Op: OpRead, LocalAddr: h.lbuf + 200, RemoteAddr: h.rbuf + 200, Len: 100})
	})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 3 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.server.DammedDrops == 0 {
		t.Error("second READ should have been dammed")
	}
	if h.server.NakSeqSent == 0 {
		t.Error("expected a PSN sequence error NAK")
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (NAK rescue)", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(20) {
		t.Errorf("took %v, want ≈5–6 ms", h.eng.Now())
	}
}

func TestWrongLIDRetryExceeded(t *testing.T) {
	// The Figure 2 experiment: wrong destination LID, C_retry = 7 ⇒
	// 8 timeouts then IBV_WC_RETRY_EXC_ERR; T_o = t/8.
	h := newHarness(t, 8, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpC.Connect(99 /* bogus LID */, h.qpS.Num, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCRetryExcErr {
		t.Fatalf("cqes = %+v, want IBV_WC_RETRY_EXC_ERR", cqes)
	}
	if h.qpC.State() != QPError {
		t.Error("QP should be in the Error state")
	}
	if h.qpC.Stats.Timeouts != 8 {
		t.Errorf("Timeouts = %d, want 8 (1+C_retry)", h.qpC.Stats.Timeouts)
	}
	// t/8 ≈ T_o ≈ 1.86 × 268 ms ≈ 500 ms.
	to := h.eng.Now() / 8
	if to < sim.FromMillis(400) || to > sim.FromMillis(700) {
		t.Errorf("T_o = %v, want ≈500 ms", to)
	}
}

func TestCACKZeroDisablesTimeout(t *testing.T) {
	p := defaultParams()
	p.CACK = 0
	h := newHarness(t, 9, ConnectX4(), rcTransport, noODP, p)
	h.qpC.Connect(99, h.qpS.Num, p)
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.RunUntil(10 * sim.Second)
	if len(pollAll(h.cqC)) != 0 {
		t.Error("with C_ACK=0 the request should hang forever")
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Error("no timeouts should fire with C_ACK=0")
	}
}

func TestPostToErroredQPFlushes(t *testing.T) {
	h := newHarness(t, 10, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpC.Connect(99, h.qpS.Num, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	pollAll(h.cqC)
	h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCFlushErr {
		t.Fatalf("cqes = %+v, want flush error", cqes)
	}
}

func TestWriteAndSend(t *testing.T) {
	h := newHarness(t, 11, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpS.PostRecv(RecvWR{ID: 100, Addr: h.rbuf + 4096, Len: 4096})
	h.qpC.PostSend(SendWR{ID: 1, Op: OpWrite, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 200})
	h.qpC.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: h.lbuf, Len: 64})
	h.eng.Run()
	send := pollAll(h.cqC)
	if len(send) != 2 || send[0].Status != WCSuccess || send[1].Status != WCSuccess {
		t.Fatalf("send cqes = %+v", send)
	}
	recv := pollAll(h.cqS)
	if len(recv) != 1 || !recv[0].Recv || recv[0].ByteLen != 64 {
		t.Fatalf("recv cqes = %+v", recv)
	}
}

func TestSendWithoutRecvGetsRNR(t *testing.T) {
	h := newHarness(t, 12, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpSend, LocalAddr: h.lbuf, Len: 64})
	// Post the receive 2 ms later; the SEND should retry and land.
	h.eng.After(2*sim.Millisecond, func() {
		h.qpS.PostRecv(RecvWR{ID: 100, Addr: h.rbuf, Len: 4096})
	})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.qpC.Stats.RNRNakReceived == 0 {
		t.Error("expected a genuine RNR NAK")
	}
	if len(pollAll(h.cqS)) != 1 {
		t.Error("server should complete the receive")
	}
}

func TestUnregisteredRemoteIsAccessError(t *testing.T) {
	// READ and WRITE targets and a SEND's receive buffer pass the same
	// protection check: a range outside every registration is a remote
	// access error, not an RNR NAK retried forever at RNRRetry 7.
	for _, op := range []SendOp{OpRead, OpWrite, OpSend} {
		t.Run(op.String(), func(t *testing.T) {
			h := newHarness(t, 13, ConnectX4(), rcTransport, noODP, defaultParams())
			bad := h.server.AS.Alloc(hostmem.PageSize) // never registered
			if op == OpSend {
				h.qpS.PostRecv(RecvWR{ID: 100, Addr: bad, Len: hostmem.PageSize})
			}
			h.qpC.PostSend(SendWR{ID: 1, Op: op, LocalAddr: h.lbuf, RemoteAddr: bad, Len: 100})
			h.eng.RunUntil(100 * sim.Millisecond) // bounded: an RNR loop never drains
			cqes := pollAll(h.cqC)
			if len(cqes) != 1 || cqes[0].Status != WCRemoteAccessErr {
				t.Fatalf("cqes = %+v, want remote access error", cqes)
			}
			if h.server.RNRNakSent != 0 {
				t.Errorf("RNRNakSent = %d, want 0", h.server.RNRNakSent)
			}
			if recv := pollAll(h.cqS); len(recv) != 0 {
				t.Errorf("recv cqes = %+v, want none", recv)
			}
		})
	}
}

// TestUDLandingByMemoryMode sends one datagram into a cold on-demand
// landing buffer on an NP-RDMA device and on an ODP device. The NPR
// driver migrates the touched pages synchronously and the datagram is
// delivered; the ODP miss starts a fault and the datagram is dropped,
// since UD has nobody to retransmit it.
func TestUDLandingByMemoryMode(t *testing.T) {
	eng := sim.New(21)
	fab := fabric.New(eng, fabric.DefaultConfig())
	src := New(fab, 1, "src", ConnectX4(), hostmem.DefaultConfig())
	nprDev := New(fab, 2, "npr", ConnectX4(), hostmem.DefaultConfig())
	nprDev.SetMemoryMode(KindNPR, npr.DefaultConfig())
	odpDev := New(fab, 3, "odp", ConnectX4(), hostmem.DefaultConfig())
	cq := NewCQ(eng)
	tx := src.CreateUDQP(cq, cq)
	const length = 2*hostmem.PageSize + 100
	land := func(dev *RNIC) (qp *UDQP, rcq *CQ, pages int) {
		rcq = NewCQ(eng)
		qp = dev.CreateUDQP(rcq, rcq)
		buf := dev.AS.Alloc(4 * hostmem.PageSize)
		dev.RegisterMR(buf, 4*hostmem.PageSize, true)
		qp.PostRecv(RecvWR{ID: 7, Addr: buf, Len: 4 * hostmem.PageSize})
		tx.PostSend(UDSendWR{ID: 1, DestLID: dev.LID(), DestQPN: qp.Num, Len: length})
		return qp, rcq, len(hostmem.PagesSpanned(buf, length))
	}
	nprQP, nprCQ, pages := land(nprDev)
	odpQP, odpCQ, _ := land(odpDev)
	eng.Run()

	if got := pollAll(nprCQ); len(got) != 1 || got[0].Status != WCSuccess || got[0].ByteLen != length {
		t.Errorf("npr recv cqes = %+v, want one %d B success", got, length)
	}
	if nprQP.Delivered != 1 || nprQP.DroppedFault != 0 {
		t.Errorf("npr: delivered %d, dropped %d; want 1, 0", nprQP.Delivered, nprQP.DroppedFault)
	}
	if got := nprDev.NPR().Migrations; got != uint64(pages) {
		t.Errorf("npr_migrations = %d, want %d (the pages the datagram touched)", got, pages)
	}
	if got := pollAll(odpCQ); len(got) != 0 {
		t.Errorf("odp recv cqes = %+v, want none", got)
	}
	if odpQP.Delivered != 0 || odpQP.DroppedFault != 1 || odpQP.RecvDepth() != 1 {
		t.Errorf("odp: delivered %d, dropped %d, recv depth %d; want 0, 1, 1",
			odpQP.Delivered, odpQP.DroppedFault, odpQP.RecvDepth())
	}
	if odpDev.ODP.Faults == 0 {
		t.Error("odp: the cold landing buffer should have faulted")
	}
}

func TestImplicitODPCoversEverything(t *testing.T) {
	h := newHarness(t, 14, ConnectX4(), rcTransport, noODP, defaultParams())
	h.server.EnableImplicitODP()
	extra := h.server.AS.Alloc(hostmem.PageSize) // unregistered but implicit
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: extra, Len: 100})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.server.RNRNakSent == 0 {
		t.Error("implicit ODP access should have faulted")
	}
}

func TestMultiPacketRead(t *testing.T) {
	h := newHarness(t, 15, ConnectX4(), rcTransport, noODP, defaultParams())
	const size = 3*4096 + 100 // 4 response packets
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: size})
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess || cqes[0].ByteLen != size {
		t.Fatalf("cqes = %+v", cqes)
	}
	// PSN space: the READ consumed 4 PSNs.
	h.qpC.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: h.lbuf, Len: 8})
	h.qpS.PostRecv(RecvWR{ID: 3, Addr: h.rbuf, Len: 4096})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 1 || n[0].Status != WCSuccess {
		t.Fatalf("follow-up after multi-packet READ failed: %+v", n)
	}
}

func TestMaxRdAtomicLimitsOutstanding(t *testing.T) {
	p := defaultParams()
	p.MaxRdAtomic = 2
	h := newHarness(t, 16, ConnectX4(), rcTransport, noODP, p)
	for i := 0; i < 5; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	}
	if h.qpC.OutstandingReads() > 2 {
		t.Errorf("outstanding reads = %d, want ≤ 2", h.qpC.OutstandingReads())
	}
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 5 {
		t.Fatalf("got %d completions", len(n))
	}
}

func TestPinnedBuffersNeverFault(t *testing.T) {
	h := newHarness(t, 17, ConnectX4(), rcTransport, noODP, defaultParams())
	for i := 0; i < 20; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf + hostmem.Addr(i*100), RemoteAddr: h.rbuf + hostmem.Addr(i*100), Len: 100})
	}
	h.eng.Run()
	if h.server.RNRNakSent != 0 || h.qpC.Stats.ClientFaultRounds != 0 {
		t.Error("pinned memory must not fault")
	}
	if n := pollAll(h.cqC); len(n) != 20 {
		t.Fatalf("got %d completions", len(n))
	}
}

func TestBothSideODPTwoReadsTimeout(t *testing.T) {
	// Figure 4's main result at interval 1 ms, both-side ODP.
	h := newHarness(t, 18, ConnectX4(), rcTransport, bothODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := pollAll(h.cqC); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts == 0 {
		t.Error("expected a damming timeout")
	}
	got := h.eng.Now()
	if got < sim.FromMillis(300) || got > sim.FromMillis(1500) {
		t.Errorf("execution took %v, want several hundred ms", got)
	}
}

func TestProfileTTr(t *testing.T) {
	p := ConnectX4()
	// Effective exponent is max(1, 16) = 16: 4.096 µs × 2^16 ≈ 268 ms.
	if got := p.TTr(1); got != sim.Time(4096)*sim.Nanosecond<<16 {
		t.Errorf("TTr(1) = %v", got)
	}
	if got := p.TTr(18); got != sim.Time(4096)*sim.Nanosecond<<18 {
		t.Errorf("TTr(18) = %v", got)
	}
	if p.TTr(0) != 0 {
		t.Error("TTr(0) should disable the timeout")
	}
	cx5 := ConnectX5()
	// c0=12: 4.096 µs × 2^12 ≈ 16.8 ms ⇒ T_o floor ≈ 30 ms.
	if got := cx5.TTr(1); got != sim.Time(4096)*sim.Nanosecond<<12 {
		t.Errorf("CX5 TTr(1) = %v", got)
	}
}

// TestIRNBDPFromProfile: EnableIRN caps injection at the profile's line
// rate times irn.BaseRTT (6 µs).
func TestIRNBDPFromProfile(t *testing.T) {
	for _, tc := range []struct {
		prof Profile
		want int
	}{
		{ConnectX4(), 42000}, // 56 Gbit/s = 7 B/ns
		{ConnectX5(), 75000}, // 100 Gbit/s = 12.5 B/ns
	} {
		fab := fabric.New(sim.New(1), fabric.DefaultConfig())
		r := New(fab, 1, "n", tc.prof, hostmem.DefaultConfig())
		r.EnableIRN()
		if r.irnBDP != tc.want {
			t.Errorf("%s at %v Gb/s: BDP = %d, want %d", tc.prof.Name, tc.prof.LinkGbps, r.irnBDP, tc.want)
		}
	}
}

func TestDrawTimeoutWithinSpecBounds(t *testing.T) {
	eng := sim.New(19)
	p := ConnectX4()
	for i := 0; i < 1000; i++ {
		to := p.DrawTimeout(eng, 1, 1)
		ttr := p.TTr(1)
		if to < ttr || to > 4*ttr {
			t.Fatalf("T_o = %v outside [T_tr, 4·T_tr]", to)
		}
	}
	// Load lengthens the draw but never beyond the spec clamp.
	var idle, loaded sim.Time
	for i := 0; i < 200; i++ {
		idle += p.DrawTimeout(eng, 18, 1)
		loaded += p.DrawTimeout(eng, 18, 100)
	}
	if loaded <= idle {
		t.Error("busy QPs should lengthen the timeout (§VI-C)")
	}
	for i := 0; i < 100; i++ {
		if to := p.DrawTimeout(eng, 18, 10000); to > 4*p.TTr(18) {
			t.Fatal("load scaling must respect the 4·T_tr clamp")
		}
	}
}

func TestCQWaitN(t *testing.T) {
	h := newHarness(t, 20, ConnectX4(), rcTransport, noODP, defaultParams())
	var got [3]CQE
	h.eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
			p.Sleep(10 * sim.Microsecond)
		}
		h.cqC.WaitN(p, got[:])
	})
	h.eng.MustRun()
	for i, e := range got {
		if e.WRID != uint64(i) || e.Status != WCSuccess {
			t.Fatalf("WaitN slot %d = WR %d %v, want WR %d success", i, e.WRID, e.Status, i)
		}
	}
	if h.cqC.Len() != 0 {
		t.Errorf("%d completions left on the CQ", h.cqC.Len())
	}
}

// pollAll drains every pending completion into a fresh slice.
func pollAll(cq *CQ) []CQE {
	buf := make([]CQE, cq.Len())
	return buf[:cq.Poll(buf)]
}

// TestCQPollFillsCallerBuffer checks ibv_poll_cq's contract: Poll moves
// at most len(buf) completions, oldest first, leaves the rest queued and
// reports how many it moved.
func TestCQPollFillsCallerBuffer(t *testing.T) {
	h := newHarness(t, 21, ConnectX4(), rcTransport, noODP, defaultParams())
	for i := 0; i < 5; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpWrite, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
	}
	h.eng.Run()
	var buf [2]CQE
	var ids []uint64
	for {
		n := h.cqC.Poll(buf[:])
		for _, e := range buf[:n] {
			ids = append(ids, e.WRID)
		}
		if n < len(buf) {
			break
		}
	}
	if len(ids) != 5 {
		t.Fatalf("polled %d completions, want 5", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("completion %d is WR %d, want oldest first", i, id)
		}
	}
	if n := h.cqC.Poll(buf[:]); n != 0 {
		t.Errorf("Poll on a drained CQ moved %d", n)
	}
}

// pooledWQEs counts the WR objects on the engine's free list, failing
// the test if one of them was not zeroed on its way back.
func pooledWQEs(t *testing.T, r *RNIC) int {
	t.Helper()
	n := 0
	for w := r.scratch.freeWQEs; w != nil; w = w.next {
		if *w != (wqe{next: w.next}) {
			t.Fatalf("pooled WR %d not zeroed: %+v", n, *w)
		}
		n++
	}
	return n
}

// TestWQEPoolRecycles checks the WR ownership rule: a WR object returns
// to the pool, zeroed, when its WR completes and when a fatal error
// flushes it, and later posts reuse pooled objects.
func TestWQEPoolRecycles(t *testing.T) {
	p := defaultParams()
	p.RetryCount = 0
	h := newHarness(t, 30, ConnectX4(), rcTransport, noODP, p)
	qpC := h.qpC
	post := func(n int) {
		for i := 0; i < n; i++ {
			qpC.PostSend(SendWR{ID: uint64(i), Op: OpWrite, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
		}
	}

	post(4)
	h.eng.Run()
	if got := len(pollAll(h.cqC)); got != 4 {
		t.Fatalf("%d completions, want 4", got)
	}
	if got := pooledWQEs(t, h.client); got != 4 {
		t.Fatalf("%d WRs pooled after completion, want 4", got)
	}

	post(4)
	if got := pooledWQEs(t, h.client); got != 0 {
		t.Fatalf("%d WRs still pooled after reposting, want all 4 reused", got)
	}
	h.eng.Run()
	if got := len(pollAll(h.cqC)); got != 4 {
		t.Fatalf("%d completions of the reused WRs, want 4", got)
	}

	// A fresh QP pair on the same devices draws from the same pool.
	qpC = h.client.CreateQP(h.cqC, h.cqC)
	ConnectPair(qpC, h.server.CreateQP(h.cqS, h.cqS), p, p)
	h.fab.SetLossRate(1)
	post(4)
	h.eng.Run()
	cqes := pollAll(h.cqC)
	if len(cqes) != 4 || cqes[0].Status != WCRetryExcErr {
		t.Fatalf("completions after total loss = %+v, want RETRY_EXC then 3 flushes", cqes)
	}
	for i, e := range cqes[1:] {
		if e.Status != WCFlushErr || e.WRID != uint64(i+1) {
			t.Errorf("completion %d = WR %d %s, want WR %d flushed", i+1, e.WRID, e.Status, i+1)
		}
	}
	if got := pooledWQEs(t, h.client); got != 4 {
		t.Fatalf("%d WRs pooled after the flush, want 4", got)
	}
}

// TestColdAllocPosts pins the cold cost of posting: N READs posted on a
// fresh engine (MaxRdAtomic of them go out, the rest wait in the send
// queue) take their WR objects from blocks, so doubling N adds about
// N/wqeBlock allocations plus one send-queue doubling, not N.
func TestColdAllocPosts(t *testing.T) {
	run := func(n int) float64 {
		// A GC cycle starting inside the measured run would count its
		// own allocations against the budget.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			h := newHarness(t, 1, ConnectX4(), rcTransport, noODP, defaultParams())
			for i := 0; i < n; i++ {
				h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
			}
		})
	}
	const n = 1024
	a, b := run(n), run(2*n)
	ceiling := float64(n/wqeBlock + 2)
	t.Logf("cold posts: %d WRs → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", n, a, 2*n, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling %d posted WRs added %.0f allocations, want at most %.0f", n, b-a, ceiling)
	}
}

// TestReserveSendSizesQueue checks QP.ReserveSend: a send queue sized
// for n WRs holds n posted READs, all but MaxRdAtomic of them waiting,
// without growing, and a queue of at most qpChunk WRs still takes its
// chunk at the first post.
func TestReserveSendSizesQueue(t *testing.T) {
	const n = 256
	h := newHarness(t, 1, ConnectX4(), rcTransport, noODP, defaultParams())
	h.qpC.ReserveSend(n)
	room := h.qpC.sq.Cap()
	if room < n {
		t.Fatalf("ReserveSend(%d) left room for %d", n, room)
	}
	for i := 0; i < n; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
	}
	if h.qpC.sq.Len() < n/2 || h.qpC.sq.Cap() != room {
		t.Errorf("%d WRs waiting in a send queue of %d slots, reserved %d", h.qpC.sq.Len(), h.qpC.sq.Cap(), room)
	}
	small := h.client.CreateQP(h.cqC, h.cqC)
	small.ReserveSend(qpChunk)
	if small.sq.Cap() != 0 {
		t.Errorf("ReserveSend(%d) allocated %d slots, want the chunk at the first post", qpChunk, small.sq.Cap())
	}
}

// TestColdAllocQPs pins the cold cost of a QP: N connected pairs built
// on a fresh engine, each requester posting one READ, take their QPs
// from QP blocks, their send and outstanding queues' first arrays from
// chunk blocks and their Local ACK Timeout events from event blocks, and
// arm the timeout without binding a callback. The fabric drops every
// packet as it is sent, so one pooled packet serves them all. Doubling
// N adds a block per qpBlock QPs, per chunkBlock queues, per 170 events
// and per wqeBlock WRs, plus a doubling each of the two QP tables and
// the timer heap: about N/8, where each pair took 8 objects (two QPs,
// four bound callbacks, two queue arrays) and its timer event before.
func TestColdAllocQPs(t *testing.T) {
	run := func(n int) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			h := newHarness(t, 1, ConnectX4(), rcTransport, noODP, defaultParams())
			h.fab.SetLossRate(1)
			for i := 0; i < n; i++ {
				c, s := h.client.CreateQP(h.cqC, h.cqC), h.server.CreateQP(h.cqS, h.cqS)
				ConnectPair(c, s, defaultParams(), defaultParams())
				c.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
			}
		})
	}
	const n = 512
	a, b := run(n), run(2*n)
	ceiling := float64(2*n/qpBlock + 2*n/chunkBlock + n/170 + n/wqeBlock + 8)
	t.Logf("cold QPs: %d pairs → %.0f allocations, %d → %.0f (ceiling for the doubling %.0f)", n, a, 2*n, b, ceiling)
	if b-a > ceiling {
		t.Errorf("doubling %d QP pairs added %.0f allocations, want at most %.0f", n, b-a, ceiling)
	}
}

// deviceBuild builds a fabric and one device on eng, with DCQCN, IRN
// and NP-RDMA when all is set.
func deviceBuild(eng *sim.Engine, all bool) (*fabric.Fabric, *RNIC) {
	fab := fabric.New(eng, fabric.DefaultConfig())
	r := New(fab, 1, "dev0", ConnectX4(), hostmem.DefaultConfig())
	if all {
		r.EnableDCQCN()
		r.EnableIRN()
		r.SetMemoryMode(KindNPR, npr.DefaultConfig())
	}
	return fab, r
}

// TestRegistrationBudgetDevice pins what a device's counters cost to
// register: nothing per counter. On a cold build, enabling DCQCN, IRN
// and NP-RDMA, 11 counters between them, adds only the NP-RDMA pool's
// own objects. A rebuild on a Reset engine allocates nothing, tables
// included. A second snapshot of the unchanged device hub allocates
// only its sample slice.
func TestRegistrationBudgetDevice(t *testing.T) {
	cold := func(all bool) float64 {
		return testing.AllocsPerRun(20, func() { deviceBuild(sim.New(1), all) })
	}
	pool := testing.AllocsPerRun(20, func() {
		npr.New(hostmem.NewAddressSpace(sim.New(1), hostmem.DefaultConfig()), npr.DefaultConfig())
	}) - testing.AllocsPerRun(20, func() { hostmem.NewAddressSpace(sim.New(1), hostmem.DefaultConfig()) })
	base, all := cold(false), cold(true)
	t.Logf("cold build: %.0f allocations, %.0f with DCQCN, IRN and NP-RDMA (the pool's own: %.0f)", base, all, pool)
	if all-base > pool {
		t.Errorf("enabling DCQCN, IRN and NP-RDMA adds %.0f allocations, want at most the pool's %.0f", all-base, pool)
	}

	eng := sim.New(1)
	deviceBuild(eng, true)
	warm := testing.AllocsPerRun(20, func() {
		eng.Reset(1)
		deviceBuild(eng, true)
	})
	if warm != 0 {
		t.Errorf("a rebuild on a Reset engine allocates %.1f objects, want 0", warm)
	}

	eng.Reset(1)
	fab, r := deviceBuild(eng, true)
	cq := NewCQ(eng)
	r.CreateQP(cq, cq)
	r.CreateUDQP(cq, cq)
	hub := telemetry.NewHubOn(eng)
	hub.Add(fab.Telemetry())
	hub.Add(r.Telemetry())
	hub.Snapshot(0)
	if avg := testing.AllocsPerRun(20, func() { hub.Snapshot(0) }); avg > 1 {
		t.Errorf("a second snapshot allocates %.0f objects, want 1 (the sample slice)", avg)
	}
}
