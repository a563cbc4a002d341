package capture

import (
	"strings"
	"testing"

	"odpsim/internal/fabric"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *fabric.Fabric, *Capture, *fabric.Port) {
	t.Helper()
	eng := sim.New(1)
	fab := fabric.New(eng, fabric.DefaultConfig())
	cap := Attach(fab)
	a := fab.AttachPort(1, "client", func(*packet.Packet) {})
	fab.AttachPort(2, "server", func(*packet.Packet) {})
	return eng, fab, cap, a
}

func TestCaptureRecords(t *testing.T) {
	eng, _, cap, a := setup(t)
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 1, DestQP: 7})
	a.Send(&packet.Packet{Opcode: packet.OpAcknowledge, Syndrome: packet.SynRNRNAK, DLID: 2})
	eng.Run()
	if cap.Total() != 2 {
		t.Fatalf("Total = %d", cap.Total())
	}
	rs := cap.Records()
	if rs[0].Pkt.Opcode != packet.OpReadRequest || rs[0].Pkt.DestQP != 7 || rs[0].Src != "client" || rs[0].Dst != "server" {
		t.Errorf("first record = %+v, want the read request to QP 7", rs[0])
	}
	if rs[1].Pkt.Syndrome != packet.SynRNRNAK {
		t.Errorf("second record syndrome = %v, want RNR NAK", rs[1].Pkt.Syndrome)
	}
}

func TestRenderFlow(t *testing.T) {
	eng, _, cap, a := setup(t)
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 0})
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 99, PSN: 1}) // dropped
	doomed := &packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 2, DammingDoomed: true}
	a.Send(doomed)
	eng.Run()
	var b strings.Builder
	cap.RenderFlow(&b, "client")
	out := b.String()
	if !strings.Contains(out, "──▶") {
		t.Errorf("missing direction arrow:\n%s", out)
	}
	if !strings.Contains(out, "unknown DLID") {
		t.Errorf("missing drop annotation:\n%s", out)
	}
	if !strings.Contains(out, "damming quirk") {
		t.Errorf("missing doomed annotation:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	eng, _, cap, a := setup(t)
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2})
	a.Send(&packet.Packet{Opcode: packet.OpAcknowledge, Syndrome: packet.SynNAKSeqErr, DLID: 2})
	eng.Run()
	s := cap.Summary()
	if !strings.Contains(s, "2 packets captured") {
		t.Errorf("summary:\n%s", s)
	}
	if !strings.Contains(s, "NAK (PSN Sequence Error)") {
		t.Errorf("summary missing syndrome:\n%s", s)
	}
}
