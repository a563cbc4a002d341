package softrel

import (
	"errors"
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// Note: simulations containing a Server use eng.Run(), not MustRun: the
// server process intentionally parks forever.

func setup(t *testing.T, seed int64, cfg Config) (*cluster.Cluster, *Client, *Server) {
	t.Helper()
	cl := cluster.ReedbushH().Build(seed, 2)
	srv := NewServer(cl.Nodes[1], cfg)
	cli := NewClient(cl.Nodes[0], cfg)
	return cl, cli, srv
}

func TestBasicRPC(t *testing.T) {
	cl, cli, srv := setup(t, 1, DefaultConfig())
	var err error
	var at sim.Time
	cl.Eng.Go("caller", func(p *sim.Proc) {
		err = cli.Call(p, srv.LID(), srv.QPN(), 64)
		at = p.Now()
	})
	cl.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at > 20*sim.Microsecond {
		t.Errorf("RPC took %v, want ≈1 RTT", at)
	}
	if srv.Handled != 1 {
		t.Errorf("Handled = %d", srv.Handled)
	}
	if cli.Retransmits != 0 {
		t.Error("no retransmissions expected")
	}
}

func TestManyRPCs(t *testing.T) {
	cl, cli, srv := setup(t, 2, DefaultConfig())
	errs := 0
	cl.Eng.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := cli.Call(p, srv.LID(), srv.QPN(), 32); err != nil {
				errs++
			}
		}
	})
	cl.Eng.Run()
	if errs != 0 {
		t.Errorf("%d RPCs failed", errs)
	}
	if srv.Handled != 200 {
		t.Errorf("Handled = %d", srv.Handled)
	}
}

func TestLossRecoveredBySoftwareTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cl, cli, srv := setup(t, 3, cfg)
	// Drop exactly the first request datagram.
	dropped := false
	cl.Fab.SetDropFilter(func(pkt *packet.Packet) bool {
		if !dropped && pkt.Opcode == packet.OpUDSend && pkt.DestQP == srv.QPN() {
			dropped = true
			return true
		}
		return false
	})
	var err error
	var at sim.Time
	cl.Eng.Go("caller", func(p *sim.Proc) {
		err = cli.Call(p, srv.LID(), srv.QPN(), 64)
		at = p.Now()
	})
	cl.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cli.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want 1", cli.Retransmits)
	}
	// Recovery after one software timeout (1 ms), not a hardware T_o.
	if at < cfg.Timeout || at > cfg.Timeout+100*sim.Microsecond {
		t.Errorf("recovered at %v, want ≈%v", at, cfg.Timeout)
	}
}

func TestBlackholeFailsFast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 3
	cl, cli, _ := setup(t, 4, cfg)
	var err error
	var at sim.Time
	cl.Eng.Go("caller", func(p *sim.Proc) {
		err = cli.Call(p, 99 /* no such LID */, 1, 64)
		at = p.Now()
	})
	cl.Eng.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// 4 attempts × 1 ms ≈ 4 ms — versus ≈4 s for RC with C_retry=7 and
	// the 500 ms hardware floor.
	if at > 10*sim.Millisecond {
		t.Errorf("failure detected at %v, want milliseconds", at)
	}
	if cli.Failures != 1 {
		t.Errorf("Failures = %d", cli.Failures)
	}
}

func TestSoftwareVsHardwareDetection(t *testing.T) {
	// The §VIII-C comparison: time to *detect* an unreachable peer.
	cfg := DefaultConfig()
	cfg.Retries = 3
	cl, cli, _ := setup(t, 5, cfg)
	var softDetect sim.Time
	cl.Eng.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		_ = cli.Call(p, 99, 1, 64)
		softDetect = p.Now() - start
	})
	cl.Eng.Run()

	// Hardware RC on the same system: wrong LID with C_retry=3.
	cl2 := cluster.ReedbushH().Build(6, 2)
	cq := rnic.NewCQ(cl2.Eng)
	qp := cl2.Nodes[0].CreateQP(cq, cq)
	qp.Connect(99, 1, rnic.ConnParams{CACK: 1, RetryCount: 3})
	lbuf := cl2.Nodes[0].AS.Alloc(4096)
	cl2.Nodes[0].RegisterMR(lbuf, 4096, false)
	var hardDetect sim.Time
	cl2.Eng.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		qp.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lbuf, RemoteAddr: 0x1000, Len: 64})
		var wc [1]rnic.CQE
		cq.WaitN(p, wc[:])
		hardDetect = p.Now() - start
	})
	cl2.Eng.MustRun()

	if hardDetect < 100*softDetect {
		t.Errorf("software detection (%v) should beat hardware (%v) by ≥2 orders of magnitude",
			softDetect, hardDetect)
	}
}

func TestUDDropsWithoutRecvBuffer(t *testing.T) {
	cl := cluster.ReedbushH().Build(7, 2)
	cqA, cqB := rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng)
	qpA := cl.Nodes[0].CreateUDQP(cqA, cqA)
	qpB := cl.Nodes[1].CreateUDQP(cqB, cqB) // no recvs posted
	buf := cl.Nodes[0].AS.Alloc(4096)
	cl.Nodes[0].AS.Touch(buf, 4096)
	cl.Nodes[0].RegisterMR(buf, 4096, false)
	qpA.PostSend(rnic.UDSendWR{ID: 1, DestLID: cl.Nodes[1].LID(), DestQPN: qpB.Num, Local: buf, Len: 64})
	cl.Eng.Run()
	if qpB.DroppedNoRecv != 1 {
		t.Errorf("DroppedNoRecv = %d (UD must drop silently)", qpB.DroppedNoRecv)
	}
	if qpB.Delivered != 0 {
		t.Error("nothing should be delivered")
	}
	// The send still completed locally — UD has no acknowledgement.
	var got [2]rnic.CQE
	if n := cqA.Poll(got[:]); n != 1 || got[0].Status != rnic.WCSuccess {
		t.Errorf("send completions = %+v", got[:n])
	}
}

func TestUDODPFaultDropsDatagram(t *testing.T) {
	cl := cluster.ReedbushH().Build(8, 2)
	cqA, cqB := rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng)
	qpA := cl.Nodes[0].CreateUDQP(cqA, cqA)
	qpB := cl.Nodes[1].CreateUDQP(cqB, cqB)
	src := cl.Nodes[0].AS.Alloc(4096)
	cl.Nodes[0].AS.Touch(src, 4096)
	cl.Nodes[0].RegisterMR(src, 4096, false)
	dst := cl.Nodes[1].AS.Alloc(4096)
	cl.Nodes[1].RegisterMR(dst, 4096, true) // unmapped ODP receive buffer
	qpB.PostRecv(rnic.RecvWR{ID: 1, Addr: dst, Len: 4096})

	send := func() {
		qpA.PostSend(rnic.UDSendWR{ID: 1, DestLID: cl.Nodes[1].LID(), DestQPN: qpB.Num, Local: src, Len: 64})
	}
	send()
	cl.Eng.Run()
	if qpB.DroppedFault != 1 || qpB.Delivered != 0 {
		t.Fatalf("first datagram should fault-drop: %+v", qpB)
	}
	// After the fault resolves, a second datagram lands.
	send()
	cl.Eng.Run()
	if qpB.Delivered != 1 {
		t.Errorf("Delivered = %d after fault resolution", qpB.Delivered)
	}
}
