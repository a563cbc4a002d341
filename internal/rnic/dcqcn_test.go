package rnic

import (
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// dcqcnPair builds two RNICs on a congested switched fabric with the
// DCQCN loop enabled end to end.
func dcqcnPair(t *testing.T, congCfg congestion.Config) (*sim.Engine, *fabric.Fabric, *QP, *RNIC, *RNIC, hostmem.Addr) {
	t.Helper()
	eng := sim.New(3)
	fab := fabric.New(eng, fabric.DefaultConfig())
	fab.EnableCongestion(congCfg)
	client := New(fab, 1, "client", ConnectX4(), hostmem.DefaultConfig())
	server := New(fab, 2, "server", ConnectX4(), hostmem.DefaultConfig())
	if congCfg.DCQCN {
		client.EnableDCQCN()
		server.EnableDCQCN()
	}
	cqC, cqS := NewCQ(eng), NewCQ(eng)
	qpC := client.CreateQP(cqC, cqC)
	qpS := server.CreateQP(cqS, cqS)
	params := ConnParams{CACK: 18, RetryCount: 7}
	ConnectPair(qpC, qpS, params, params)
	lbuf := client.AS.Alloc(bufPages * hostmem.PageSize)
	rbuf := server.AS.Alloc(bufPages * hostmem.PageSize)
	client.RegisterMR(lbuf, bufPages*hostmem.PageSize, false)
	server.RegisterMR(rbuf, bufPages*hostmem.PageSize, false)
	return eng, fab, qpC, client, server, rbuf
}

func TestDCQCNLoopCutsRate(t *testing.T) {
	cfg := congestion.DefaultConfig()
	cfg.ECNThresholdBytes = 512
	cfg.DCQCN = true
	eng, fab, qpC, client, server, rbuf := dcqcnPair(t, cfg)

	// A write flood deep enough to back up the oversubscribed
	// inter-switch link and trip ECN marking.
	for i := 0; i < 256; i++ {
		qpC.PostSend(SendWR{ID: uint64(i), Op: OpWrite, LocalAddr: 0, RemoteAddr: rbuf, Len: 512})
	}
	eng.MustRun()

	if qpC.Stats.Completed != 256 {
		t.Fatalf("completed %d of 256 writes", qpC.Stats.Completed)
	}
	if server.EcnMarked == 0 {
		t.Fatal("notification point saw no ECN marks")
	}
	if server.CnpSent == 0 {
		t.Fatal("notification point sent no CNPs")
	}
	if client.CnpHandled == 0 {
		t.Fatal("reaction point handled no CNPs")
	}
	if qpC.rate.Cuts == 0 {
		t.Fatal("no rate cuts applied")
	}
	if bal := fab.Pool().Balance(); bal != 0 {
		t.Fatalf("pool balance = %d after DCQCN run", bal)
	}
}

func TestDCQCNDisabledHasNoCounters(t *testing.T) {
	cfg := congestion.DefaultConfig() // ECN off, DCQCN off
	cfg.ECN = false
	eng, _, qpC, client, server, rbuf := dcqcnPair(t, cfg)
	for i := 0; i < 32; i++ {
		qpC.PostSend(SendWR{ID: uint64(i), Op: OpWrite, LocalAddr: 0, RemoteAddr: rbuf, Len: 256})
	}
	eng.MustRun()
	if qpC.rate != nil {
		t.Fatal("rate limiter attached without EnableDCQCN")
	}
	if client.CnpHandled != 0 || server.CnpSent != 0 || server.EcnMarked != 0 {
		t.Fatal("DCQCN counters moved while disabled")
	}
	snap := client.Telemetry().Snapshot(eng.Now())
	if _, ok := snap.Get("np_cnp_sent", `{device="client"}`); ok {
		t.Fatal("np_cnp_sent registered without EnableDCQCN")
	}
}

// TestCNPPacingWindow: the notification point answers marked arrivals on
// one QP with at most one CNP per congestion.MinCNPInterval.
func TestCNPPacingWindow(t *testing.T) {
	cfg := congestion.DefaultConfig()
	cfg.DCQCN = true
	eng, _, qpC, client, server, _ := dcqcnPair(t, cfg)
	marked := packet.Packet{SLID: client.LID(), SrcQP: qpC.Num, DestQP: qpC.dqpn, ECN: true}
	mark := func() { server.maybeSendCNP(&marked) }
	start := sim.Microsecond
	for _, at := range []sim.Time{0, 0, congestion.MinCNPInterval - 1, congestion.MinCNPInterval, congestion.MinCNPInterval + 1} {
		eng.At(start+at, mark)
	}
	eng.MustRun()
	if server.CnpSent != 2 {
		t.Fatalf("CnpSent = %d, want 2 (one per %v window)", server.CnpSent, congestion.MinCNPInterval)
	}
	if client.CnpHandled != 2 {
		t.Fatalf("CnpHandled = %d, want 2", client.CnpHandled)
	}
}
