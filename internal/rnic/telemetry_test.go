package rnic

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// TestTelemetryRegistryMirrorsFields runs one ODP READ exchange and
// checks the device registry exposes the transport, port and ODP
// counters with the values the legacy exported fields show.
func TestTelemetryRegistryMirrorsFields(t *testing.T) {
	h := newHarness(t, 1, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.eng.Go("client", func(p *sim.Proc) {
		h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
		var wc [1]CQE
		h.cqC.WaitN(p, wc[:])
	})
	h.eng.MustRun()

	s := h.server.Telemetry().Snapshot(h.eng.Now())
	if got := s.Total(telemetry.SimRNRNakSent); uint64(got) != h.server.RNRNakSent {
		t.Errorf("sim_rnr_nak_sent = %v, field = %d", got, h.server.RNRNakSent)
	}
	if h.server.RNRNakSent == 0 {
		t.Error("server-side ODP READ should RNR NAK at least once")
	}
	if got := s.Total(telemetry.RxReadRequests); uint64(got) != h.server.ReadsExecuted {
		t.Errorf("rx_read_requests = %v, field = %d", got, h.server.ReadsExecuted)
	}
	if got := s.Total(telemetry.OdpPageFaults); uint64(got) != h.server.ODP.Faults {
		t.Errorf("num_page_faults = %v, field = %d", got, h.server.ODP.Faults)
	}
	if got := s.Total(telemetry.PortXmitPackets); uint64(got) != h.server.Port.TxPackets {
		t.Errorf("port_xmit_packets = %v, field = %d", got, h.server.Port.TxPackets)
	}
	if h.server.Port.TxPackets == 0 || h.server.Port.RxPackets == 0 {
		t.Error("port counters did not move")
	}

	// Per-QP requester counters live on the client registry, labelled by
	// QPN.
	c := h.client.Telemetry().Snapshot(h.eng.Now())
	if got := c.Total(telemetry.RNRNakRetryErr); uint64(got) != h.qpC.Stats.RNRNakReceived {
		t.Errorf("rnr_nak_retry_err = %v, field = %d", got, h.qpC.Stats.RNRNakReceived)
	}
	if got := c.Total(telemetry.Completions); got == 0 {
		t.Error("completions counter did not move")
	}
}

// TestTelemetryPrefetchCounter checks AdviseMR prefetches land in
// num_prefetch and warm the pages.
func TestTelemetryPrefetchCounter(t *testing.T) {
	h := newHarness(t, 1, ConnectX4(), rcTransport, serverODP, defaultParams())
	h.eng.Go("warm", func(p *sim.Proc) {
		h.server.AdviseMR(h.qpS.Num, h.rbuf, bufPages*4096)
		p.Sleep(50 * sim.Millisecond)
	})
	h.eng.MustRun()
	s := h.server.Telemetry().Snapshot(h.eng.Now())
	if got := s.Total(telemetry.OdpPrefetches); uint64(got) != h.server.ODP.Prefetches || got == 0 {
		t.Errorf("num_prefetch = %v, field = %d", got, h.server.ODP.Prefetches)
	}
}

// qpTelemetrySnapshot builds one device whose QP table interleaves 16 RC
// and 3 UD QPs (UD at QPNs 4, 10 and 19), sets every per-QP counter to a
// value distinct per (QPN, field), and snapshots it with the fabric.
// Labels sort as strings, so qpn="10" lands between qpn="1" and qpn="2".
func qpTelemetrySnapshot(t *testing.T) telemetry.Snapshot {
	eng := sim.New(1)
	fab := fabric.New(eng, fabric.DefaultConfig())
	dev := New(fab, 1, "dev0", ConnectX4(), hostmem.DefaultConfig())
	cq := NewCQ(eng)
	for qpn := uint64(1); qpn <= 19; qpn++ {
		var num uint32
		var fields []*uint64
		switch qpn {
		case 4, 10, 19:
			ud := dev.CreateUDQP(cq, cq)
			num = ud.Num
			fields = []*uint64{&ud.Sent, &ud.Delivered, &ud.DroppedNoRecv, &ud.DroppedFault}
		default:
			qp := dev.CreateQP(cq, cq)
			num = qp.Num
			s := &qp.Stats
			fields = []*uint64{&s.Posted, &s.Completed, &s.Timeouts, &s.Retransmits,
				&s.RNRNakReceived, &s.NakSeqReceived, &s.ResponsesDiscarded, &s.ClientFaultRounds}
		}
		if uint64(num) != qpn {
			t.Fatalf("created QPN %d, want %d", num, qpn)
		}
		for i, f := range fields {
			*f = 100*qpn + uint64(i)
		}
	}
	dev.RNRNakSent = 7
	hub := telemetry.NewHubOn(fab.Engine())
	hub.Add(fab.Telemetry())
	hub.Add(dev.Telemetry())
	return hub.Snapshot(42)
}

// TestQPTelemetryExportGolden pins the Prometheus and CSV exports of a
// device with interleaved RC and UD QPs to files recorded when every QP
// still registered its counters one by one.
func TestQPTelemetryExportGolden(t *testing.T) {
	s := qpTelemetrySnapshot(t)
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
	}{{"testdata/qp-telemetry.prom", prom.Bytes()}, {"testdata/qp-telemetry.csv", csv.Bytes()}} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs from the export:\n%s", c.file, c.got)
		}
	}
}

// qpTelemetryTrial rebuilds a fabric and one device on the Reset engine,
// creates n RC QPs and takes one hub snapshot.
func qpTelemetryTrial(eng *sim.Engine, n int) (*RNIC, telemetry.Snapshot) {
	eng.Reset(1)
	fab := fabric.New(eng, fabric.DefaultConfig())
	dev := New(fab, 1, "dev0", ConnectX4(), hostmem.DefaultConfig())
	cq := NewCQ(eng)
	for i := 0; i < n; i++ {
		dev.CreateQP(cq, cq)
	}
	hub := telemetry.NewHubOn(eng)
	hub.Add(fab.Telemetry())
	hub.Add(dev.Telemetry())
	return dev, hub.Snapshot(0)
}

// qpOwnAllocs is what creating one QP allocates outside telemetry on a
// warm engine: nothing, because the engine's QP arena hands back the
// previous trial's QP with its cached timer method values (a cold QP
// costs 3: the QP and the two method values).
const qpOwnAllocs = 0

// TestAllocBudgetQPTelemetry pins per-QP telemetry at zero allocations:
// a warm trial with 1000 more QPs allocates only the QPs' own objects,
// the device's scalar metric count does not depend on how many QPs
// exist, and the snapshot still reports every QP's counters.
func TestAllocBudgetQPTelemetry(t *testing.T) {
	eng := sim.New(1)
	allocs := func(n int) float64 {
		qpTelemetryTrial(eng, n) // warm the arenas and the label intern table
		return testing.AllocsPerRun(5, func() { qpTelemetryTrial(eng, n) })
	}
	small, large := allocs(1000), allocs(2000)
	perQP := (large - small) / 1000
	t.Logf("warm trial: %.0f allocs at 1000 QPs, %.0f at 2000 (%.3f per QP, own objects %d)", small, large, perQP, qpOwnAllocs)
	if perQP > qpOwnAllocs+0.01 {
		t.Errorf("each QP allocates %.3f objects, want ≤ %d: per-QP telemetry is back on the allocator", perQP, qpOwnAllocs)
	}

	d0, s0 := qpTelemetryTrial(eng, 0)
	len0 := d0.Telemetry().Len()
	d1, s1 := qpTelemetryTrial(eng, 1000)
	if got := d1.Telemetry().Len(); got != len0 {
		t.Errorf("scalar metrics: %d with 1000 QPs, %d with none", got, len0)
	}
	if got, want := len(s1.Samples), len(s0.Samples)+len(rcFamilies)*1000; got != want {
		t.Errorf("snapshot has %d samples, want %d (8 per QP)", got, want)
	}
}

// BenchmarkQPTelemetry measures a warm trial — rebuild one device,
// create the QPs, take one hub snapshot — at 1k and 8k QPs; ns/qp stays
// flat when registration and snapshot scale linearly.
func BenchmarkQPTelemetry(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("qps=%d", n), func(b *testing.B) {
			eng := sim.New(1)
			qpTelemetryTrial(eng, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qpTelemetryTrial(eng, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/qp")
		})
	}
}
