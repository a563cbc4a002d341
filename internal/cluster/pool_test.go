package cluster

import (
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// TestPoolConservationUnderLossAndRetransmit drives RC READ traffic over
// a lossy fabric — losses, timeouts and go-back-N retransmissions — and
// checks the packet pool's ledger: every packet the RNICs drew (requests,
// responses, ACKs, retransmitted copies) was returned to the pool exactly
// once by the time the simulation drained (DESIGN.md §8).
func TestPoolConservationUnderLossAndRetransmit(t *testing.T) {
	sys := KNL()
	sys.LossRate = 0.2
	cl := sys.Build(7, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]

	const n, size = 64, 64
	lbuf := client.AS.Alloc(n * size)
	rbuf := server.AS.Alloc(n * size)
	client.AS.Touch(lbuf, n*size)
	server.AS.Touch(rbuf, n*size)
	client.RegisterMR(lbuf, n*size, false)
	server.RegisterMR(rbuf, n*size, false)

	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 18, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	qc := client.CreateQP(cq, cq)
	qs := server.CreateQP(scq, scq)
	rnic.ConnectPair(qc, qs, params, params)

	for i := 0; i < n; i++ {
		off := hostmem.Addr(i * size)
		qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead,
			LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
	}
	cl.Eng.Run()

	if got := cq.Len(); got != n {
		t.Fatalf("completed %d/%d READs despite retries", got, n)
	}
	if cl.Fab.Dropped == 0 {
		t.Fatal("no packets dropped at 20% loss: test exercises nothing")
	}
	if qc.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions: test exercises nothing")
	}

	pool := cl.Fab.Pool()
	if pool.Gets == 0 {
		t.Fatal("RNIC datapath did not draw from the pool")
	}
	if pool.Balance() != 0 {
		t.Errorf("pool Balance = %d after drain, want 0 (Gets=%d Puts=%d)",
			pool.Balance(), pool.Gets, pool.Puts)
	}
	if pool.FreeLen() != int(pool.Allocs) {
		t.Errorf("FreeLen = %d, Allocs = %d: packets leaked in flight",
			pool.FreeLen(), pool.Allocs)
	}
}

// TestPoolConservationCongested runs the same ledger check on the
// switched lossless-fabric path: a WRITE burst over a lossy congested
// 2-switch fabric with PFC and DCQCN on, so the pool additionally cycles
// CNP frames, the synthetic PFC pause frames taps borrow, switch
// tail-drop reclamation and packets shed by the DCQCN rate limiter's
// finite TX backlog. Every frame class must return to the pool exactly
// once by drain time.
func TestPoolConservationCongested(t *testing.T) {
	sys := KNL()
	sys.LossRate = 0.2
	sys.Congestion = &congestion.Config{
		BufferBytes: 2 << 10,
		XOffBytes:   1536,
		XOnBytes:    512,
		PFC:         true,
		DCQCN:       true,
	}
	cl := sys.Build(7, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]

	// Count the control frames as a capture would see them, to prove the
	// PFC and CNP pool paths actually ran.
	var pauseFrames, cnpFrames int
	cl.Fab.AddTap(func(ev fabric.TapEvent) {
		switch ev.Pkt.Opcode {
		case packet.OpPFCPause:
			pauseFrames++
		case packet.OpCNP:
			cnpFrames++
		}
	})

	const nqp, n, size = 8, 32, 512
	buflen := nqp * n * size
	lbuf := client.AS.Alloc(buflen)
	rbuf := server.AS.Alloc(buflen)
	client.AS.Touch(lbuf, buflen)
	server.AS.Touch(rbuf, buflen)
	client.RegisterMR(lbuf, buflen, false)
	server.RegisterMR(rbuf, buflen, false)

	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	qps := make([]*rnic.QP, nqp)
	for i := range qps {
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		rnic.ConnectPair(qc, qs, params, params)
		qps[i] = qc
	}

	for i := 0; i < nqp*n; i++ {
		off := hostmem.Addr(i * size)
		qps[i%nqp].PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpWrite,
			LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
	}
	cl.Eng.Run()

	if got := cq.Len(); got != nqp*n {
		t.Fatalf("completed %d/%d WRITEs despite retries", got, nqp*n)
	}
	if cl.Fab.Dropped == 0 {
		t.Fatal("no packets dropped: test exercises nothing")
	}
	if pauseFrames == 0 {
		t.Error("no PFC pause frames tapped: the pause pool path did not run")
	}
	if cnpFrames == 0 {
		t.Error("no CNP frames tapped: the DCQCN pool path did not run")
	}

	pool := cl.Fab.Pool()
	if pool.Gets == 0 {
		t.Fatal("RNIC datapath did not draw from the pool")
	}
	if pool.Balance() != 0 {
		t.Errorf("pool Balance = %d after drain, want 0 (Gets=%d Puts=%d)",
			pool.Balance(), pool.Gets, pool.Puts)
	}
	if pool.FreeLen() != int(pool.Allocs) {
		t.Errorf("FreeLen = %d, Allocs = %d: packets leaked in flight",
			pool.FreeLen(), pool.Allocs)
	}
}

// TestPoolConservationCongestedChurn cycles the congested scenario
// across engine Reset generations on one engine: every generation
// rebuilds the cluster from the engine-attached arenas (entries, VL
// rings, ports, switches, DCQCN rate states, delivery lines) and drives
// enough traffic through a tight PFC window to force XOFF/XON pause
// churn and DCQCN rate cuts. The shared packet pool's ledger must
// balance after every generation — a recycled struct that double-Puts or
// strands a packet shows up here (and the pool panics on double-Put
// outright) — and once warm, a generation must not allocate new packet
// storage at all.
func TestPoolConservationCongestedChurn(t *testing.T) {
	sys := KNL()
	sys.Congestion = &congestion.Config{
		BufferBytes: 2 << 10,
		XOffBytes:   1536,
		XOnBytes:    512,
		PFC:         true,
		DCQCN:       true,
	}

	var eng *sim.Engine
	var warmAllocs uint64
	for gen := 0; gen < 4; gen++ {
		var xoff, xon, cnps int
		var cl *Cluster
		if eng == nil {
			cl = sys.Build(int64(gen+1), 2)
			eng = cl.Eng
		} else {
			cl = sys.BuildOn(eng, int64(gen+1), 2)
		}
		cl.Fab.AddTap(func(ev fabric.TapEvent) {
			switch ev.Pkt.Opcode {
			case packet.OpPFCPause:
				if ev.Pkt.XOff {
					xoff++
				} else {
					xon++
				}
			case packet.OpCNP:
				cnps++
			}
		})
		client, server := cl.Nodes[0], cl.Nodes[1]

		const n, size = 96, 512
		lbuf := client.AS.Alloc(n * size)
		rbuf := server.AS.Alloc(n * size)
		client.AS.Touch(lbuf, n*size)
		server.AS.Touch(rbuf, n*size)
		client.RegisterMR(lbuf, n*size, false)
		server.RegisterMR(rbuf, n*size, false)

		cq := rnic.NewCQ(cl.Eng)
		scq := rnic.NewCQ(cl.Eng)
		params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		rnic.ConnectPair(qc, qs, params, params)

		for i := 0; i < n; i++ {
			off := hostmem.Addr(i * size)
			qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpWrite,
				LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
		}
		cl.Eng.Run()

		if got := cq.Len(); got != n {
			t.Fatalf("gen %d: completed %d/%d WRITEs", gen, got, n)
		}
		if xoff == 0 || xon == 0 {
			t.Errorf("gen %d: pause churn missing (xoff=%d xon=%d): the PFC window did not cycle", gen, xoff, xon)
		}
		if cnps == 0 {
			t.Errorf("gen %d: no CNP frames: DCQCN rate cuts did not run", gen)
		}

		pool := cl.Fab.Pool()
		if pool.Balance() != 0 {
			t.Errorf("gen %d: pool Balance = %d after drain, want 0 (Gets=%d Puts=%d)",
				gen, pool.Balance(), pool.Gets, pool.Puts)
		}
		if pool.FreeLen() != int(pool.Allocs) {
			t.Errorf("gen %d: FreeLen = %d, Allocs = %d: packets leaked in flight",
				gen, pool.FreeLen(), pool.Allocs)
		}
		if gen == 1 {
			warmAllocs = pool.Allocs
		}
		if gen > 1 && pool.Allocs != warmAllocs {
			t.Errorf("gen %d: pool grew to %d allocs (warm figure %d): recycled storage is not being reused",
				gen, pool.Allocs, warmAllocs)
		}
	}
}

// TestPoolConservationIRNLossChurn is the IRN transport's ledger check:
// WRITE bursts over a 20%-lossy fabric under selective repeat, cycled
// across engine Reset generations like TestPoolConservationCongestedChurn.
// Losses make later PSNs land out of order, so the run cycles the frame
// classes go-back-N never mints — SACK frames, reorder-buffer stash
// copies and single-PSN retransmissions — and the shared pool's ledger
// must still balance after every generation, with no new packet storage
// once warm.
func TestPoolConservationIRNLossChurn(t *testing.T) {
	sys := KNL()
	sys.LossRate = 0.2
	sys.Transport = "irn"

	var eng *sim.Engine
	var warmAllocs uint64
	// The same seed every generation: the loss pattern (and so the pool's
	// peak demand) repeats exactly, which is what makes the no-growth
	// assertion below meaningful under random loss.
	for gen := 0; gen < 4; gen++ {
		var sacks int
		var cl *Cluster
		if eng == nil {
			cl = sys.Build(7, 2)
			eng = cl.Eng
		} else {
			cl = sys.BuildOn(eng, 7, 2)
		}
		cl.Fab.AddTap(func(ev fabric.TapEvent) {
			if ev.Pkt.Opcode == packet.OpSACK {
				sacks++
			}
		})
		client, server := cl.Nodes[0], cl.Nodes[1]

		const n, size = 96, 512
		lbuf := client.AS.Alloc(n * size)
		rbuf := server.AS.Alloc(n * size)
		client.AS.Touch(lbuf, n*size)
		server.AS.Touch(rbuf, n*size)
		client.RegisterMR(lbuf, n*size, false)
		server.RegisterMR(rbuf, n*size, false)

		cq := rnic.NewCQ(cl.Eng)
		scq := rnic.NewCQ(cl.Eng)
		params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		rnic.ConnectPair(qc, qs, params, params)

		for i := 0; i < n; i++ {
			off := hostmem.Addr(i * size)
			qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpWrite,
				LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
		}
		cl.Eng.Run()

		if got := cq.Len(); got != n {
			t.Fatalf("gen %d: completed %d/%d WRITEs despite retries", gen, got, n)
		}
		if cl.Fab.Dropped == 0 {
			t.Fatalf("gen %d: no packets dropped at 20%% loss: test exercises nothing", gen)
		}
		if qc.Stats.Retransmits == 0 {
			t.Fatalf("gen %d: no retransmissions: test exercises nothing", gen)
		}
		if sacks == 0 {
			t.Errorf("gen %d: no SACK frames tapped: the selective-ack pool path did not run", gen)
		}
		if server.OooLanded == 0 {
			t.Errorf("gen %d: no out-of-order landings: the reorder buffer did not cycle", gen)
		}

		pool := cl.Fab.Pool()
		if pool.Gets == 0 {
			t.Fatal("RNIC datapath did not draw from the pool")
		}
		if pool.Balance() != 0 {
			t.Errorf("gen %d: pool Balance = %d after drain, want 0 (Gets=%d Puts=%d)",
				gen, pool.Balance(), pool.Gets, pool.Puts)
		}
		if pool.FreeLen() != int(pool.Allocs) {
			t.Errorf("gen %d: FreeLen = %d, Allocs = %d: packets leaked in flight",
				gen, pool.FreeLen(), pool.Allocs)
		}
		if gen == 1 {
			warmAllocs = pool.Allocs
		}
		if gen > 1 && pool.Allocs != warmAllocs {
			t.Errorf("gen %d: pool grew to %d allocs (warm figure %d): recycled storage is not being reused",
				gen, pool.Allocs, warmAllocs)
		}
	}
}
