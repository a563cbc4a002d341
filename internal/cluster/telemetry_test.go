package cluster_test

import (
	"bytes"
	"os"
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/hostmem"
	"odpsim/internal/npr"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/telemetry"
)

// hubSnapshot builds a seven-node cluster on a leaf-spine Clos with
// PFC, ECN and DCQCN, random loss and a drop filter, runs traffic that
// moves every exported counter family, and snapshots the cluster hub:
//
//   - nodes 1–3 WRITE into node 0's server-side ODP buffer at once (ODP
//     faults, switch drops, ECN marks, pause frames, CNPs);
//   - node 4 READs from node 5 over IRN (both run the IRN transport),
//     and the filter drops its second request (SACKs);
//   - node 6 runs NP-RDMA and READs from node 0's pinned buffer into an
//     on-demand one (pool migrations);
//   - node 3 sends datagrams over UD to node 1 and to an absent LID.
func hubSnapshot(t *testing.T) telemetry.Snapshot {
	t.Helper()
	cfg := congestion.DefaultConfig()
	cfg.Topology = congestion.ClosTopology(2, 2, 4)
	cfg.PFC, cfg.ECN, cfg.DCQCN = true, true, true
	sys := cluster.ReedbushH()
	sys.Congestion = &cfg
	sys.LossRate = 0.002
	cl := sys.Build(5, 7)
	n := cl.Nodes
	n[4].EnableIRN()
	n[5].EnableIRN()
	n[6].SetMemoryMode(rnic.KindNPR, npr.DefaultConfig())
	irnReads := 0
	cl.Fab.SetDropFilter(func(p *packet.Packet) bool {
		if p.SLID == n[4].LID() && p.Opcode == packet.OpReadRequest {
			irnReads++
			return irnReads == 2
		}
		return false
	})

	params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: 10_000}
	const size = 64 << 10
	conn := func(req, resp *rnic.RNIC) (*rnic.QP, hostmem.Addr, hostmem.Addr) {
		lbuf := req.AS.Alloc(size)
		req.RegisterMR(lbuf, size, req == n[6])
		rbuf := resp.AS.Alloc(size)
		resp.RegisterMR(rbuf, size, false)
		qc := req.CreateQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
		qs := resp.CreateQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
		rnic.ConnectPair(qc, qs, params, params)
		return qc, lbuf, rbuf
	}
	server := n[0].AS.Alloc(3 * size)
	n[0].RegisterMR(server, 3*size, true)
	for c := 1; c <= 3; c++ {
		lbuf := n[c].AS.Alloc(size)
		n[c].RegisterMR(lbuf, size, false)
		qc := n[c].CreateQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
		qs := n[0].CreateQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
		rnic.ConnectPair(qc, qs, params, params)
		for i := 0; i < 16; i++ {
			qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpWrite, LocalAddr: lbuf + hostmem.Addr(i*1024),
				RemoteAddr: server + hostmem.Addr((c-1)*size+i*4096), Len: 1024})
		}
	}
	irnQP, lbuf, rbuf := conn(n[4], n[5])
	for i := 0; i < 8; i++ {
		irnQP.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead, LocalAddr: lbuf + hostmem.Addr(i*2048),
			RemoteAddr: rbuf + hostmem.Addr(i*2048), Len: 2048})
	}
	nprQP, lbuf, rbuf := conn(n[6], n[0])
	for i := 0; i < 4; i++ {
		nprQP.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead, LocalAddr: lbuf + hostmem.Addr(i*4096),
			RemoteAddr: rbuf + hostmem.Addr(i*4096), Len: 2048})
	}

	udBuf := n[1].AS.Alloc(4096)
	n[1].RegisterMR(udBuf, 4096, false)
	udRecv := n[1].CreateUDQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
	udRecv.PostRecv(rnic.RecvWR{ID: 1, Addr: udBuf, Len: 4096})
	udSend := n[3].CreateUDQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
	for i, lid := range []uint16{n[1].LID(), n[1].LID(), 99} {
		udSend.PostSend(rnic.UDSendWR{ID: uint64(i), DestLID: lid, DestQPN: udRecv.Num, Len: 256})
	}
	cl.Eng.MustRun()
	return cl.Telemetry().Snapshot(cl.Eng.Now())
}

// TestHubExportGolden pins the Prometheus and CSV exports of a whole
// cluster hub, device, port, ODP, DCQCN, IRN, NP-RDMA, fabric, switch
// and per-QP counters together, to files recorded before counters were
// registered by table.
func TestHubExportGolden(t *testing.T) {
	s := hubSnapshot(t)
	for _, name := range []string{
		telemetry.OdpPageFaults, telemetry.NpCnpSent, telemetry.RpCnpHandled, telemetry.IrnSackSent,
		telemetry.NprMigrations, telemetry.SimSwitchDrops, telemetry.SimSwitchEcnMarked,
		telemetry.SimSwitchPauseFrames, telemetry.TxPauseDuration, telemetry.SimUDDelivered,
		telemetry.SimUDDroppedNoRecv,
	} {
		if s.Total(name) == 0 {
			t.Errorf("%s stayed 0: the golden no longer covers it", name)
		}
	}
	for _, reason := range []string{"loss", "unroutable", "filter", "congestion"} {
		if v, _ := s.Get(telemetry.SimFabricPacketsDropped, `{device="fabric",reason="`+reason+`"}`); v == 0 {
			t.Errorf("no fabric drops for reason %q", reason)
		}
	}
	var prom, csv bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{{"testdata/hub.prom", prom.Bytes()}, {"testdata/hub.csv", csv.Bytes()}} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs from the export:\n%s", c.file, c.got)
		}
	}
}
