// Alloc-budget guard for the congested datapath. The switched-fabric
// stage is on the same zero-allocation ownership contract as the analytic
// datapath (DESIGN.md §8–§9): entries, VL rings, ports, switches, rate
// states and delivery lines are all recycled through engine-generation
// arenas, so a warm trial — rebuild the two-switch topology, run a
// 4096-packet PFC-paused burst to completion — stays within a handful of
// allocations (down from ~12,450 before the pooling work landed).
package odpsim

import (
	"testing"

	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// congestedAllocCeiling bounds the warm-trial allocation count for the
// BenchmarkCongestedSend loop body. The measured warm figure is ~4
// (telemetry registration method values); the ceiling leaves headroom
// for allocator noise, not for growth — investigate anything above
// single digits.
const congestedAllocCeiling = 32

func TestAllocBudgetCongestedSend(t *testing.T) {
	eng := sim.New(1)
	seed := int64(0)
	trial := func() {
		seed++
		eng.Reset(seed)
		f := fabric.New(eng, fabric.DefaultConfig())
		src := f.AttachPort(1, "src", func(*packet.Packet) {})
		f.AttachPort(2, "dst", func(*packet.Packet) {})
		ccfg := congestion.DefaultConfig()
		ccfg.PFC = true
		f.EnableCongestion(ccfg)
		pool := f.Pool()
		for j := 0; j < 4096; j++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = uint32(j)
			src.Send(p)
		}
		eng.Run()
	}
	trial() // first trial warms the arenas

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("congested send→deliver trial allocates %.0f/op (ceiling %d)", avg, congestedAllocCeiling)
	if avg > congestedAllocCeiling {
		t.Errorf("congested trial allocates %.0f/op, ceiling %d — the switched datapath regressed off the warm-allocation contract",
			avg, congestedAllocCeiling)
	}
}

// closAllocCeiling bounds the warm-trial allocation count when the
// rebuilt fabric is a leaf-spine Clos instead of the chain: the graph is
// bigger (6 switches, 16 links, per-switch CSR routing tables), but the
// arenas, egress slices and table backing arrays all recycle across
// Reset, so a warm trial must stay as flat as the chain's.
const closAllocCeiling = 32

func TestAllocBudgetClosSend(t *testing.T) {
	ccfg := congestion.DefaultConfig()
	ccfg.Topology = congestion.ClosTopology(2, 4, 4)
	ccfg.PFC = true
	ccfg.XOffBytes = 1 << 10
	ccfg.XOnBytes = 512

	eng := sim.New(1)
	seed := int64(0)
	trial := func() {
		seed++
		eng.Reset(seed)
		f := fabric.New(eng, fabric.DefaultConfig())
		// Eight hosts round-robin across the four leaves; every flow
		// below crosses a spine, so ECMP and the routing tables are on
		// the measured path.
		ports := make([]*fabric.Port, 8)
		for lid := uint16(1); lid <= 8; lid++ {
			ports[lid-1] = f.AttachPort(lid, "host", func(*packet.Packet) {})
		}
		f.EnableCongestion(ccfg)
		pool := f.Pool()
		for j := 0; j < 4096; j++ {
			src := ports[j%4]          // leaves 0..3
			dst := uint16(5 + (j+1)%4) // the other replica on each leaf
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = dst
			p.PSN = uint32(j)
			src.Send(p)
		}
		eng.Run()
	}
	trial() // first trial warms the arenas (incl. CSR routing tables)

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("clos send→deliver trial allocates %.0f/op (ceiling %d)", avg, closAllocCeiling)
	if avg > closAllocCeiling {
		t.Errorf("clos trial allocates %.0f/op, ceiling %d — graph rebuild or ECMP routing left the warm-allocation contract",
			avg, closAllocCeiling)
	}
}

// irnAllocCeiling bounds the warm-trial allocation count for the IRN
// selective-repeat send path. The trial rebuilds a two-node IRN cluster
// on a Reset-reused engine and floods 256 pinned-memory WRITEs over a
// 10%-lossy fabric, so SACK frames, reorder-buffer stashes and
// single-PSN retransmits are all on the measured path. The measured warm
// figure is 14 (15 under -race), all of it per rebuild: cluster and
// fabric headers, node names, MR objects, ODP engine headers and the
// receive method value each device binds. RNIC structs, CQs and QPs come from the
// engine-generation arenas (56 before they did). Work request objects
// come from the engine's WR pool and the send, outstanding and
// completion queues reuse their storage, so the 256 WRs add nothing; the
// per-QP IRN State comes from the irn.StateFor arena and the
// SACK/stash/retransmit datapath allocates nothing per packet. That is
// the contract this ceiling pins — any per-WR, per-packet or per-SACK
// allocation would add ≥256 and blow straight through it. The ceiling
// is the -race figure plus ~8%.
const irnAllocCeiling = 16

func TestAllocBudgetIRNSend(t *testing.T) {
	sys := cluster.KNL()
	sys.LossRate = 0.1
	sys.Transport = "irn"

	eng := sim.New(1)
	trial := func() {
		cl := sys.BuildOn(eng, 7, 2)
		client, server := cl.Nodes[0], cl.Nodes[1]

		const n, size = 256, 512
		lbuf := client.AS.Alloc(n * size)
		rbuf := server.AS.Alloc(n * size)
		client.AS.Touch(lbuf, n*size)
		server.AS.Touch(rbuf, n*size)
		client.RegisterMR(lbuf, n*size)
		server.RegisterMR(rbuf, n*size)

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
			t.Fatalf("completed %d/%d WRITEs", got, n)
		}
	}
	trial() // first trial warms the arenas (incl. the IRN state arena)

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("irn send trial allocates %.0f/op (ceiling %d)", avg, irnAllocCeiling)
	if avg > irnAllocCeiling {
		t.Errorf("irn trial allocates %.0f/op, ceiling %d — the selective-repeat path regressed off the warm-allocation contract",
			avg, irnAllocCeiling)
	}
}

// sparkWavePerFetchCeiling bounds the marginal allocation count of one
// shuffle fetch in a pinned-memory SparkUCX wave: each fetch is one
// ucx GET, one send work request and one CQE. The WR object comes from
// the engine's WR pool, the send, outstanding and completion queues
// reuse their storage, the CQ is polled into a fixed buffer and the
// completion lands in the worker's dense table, so the per-fetch cost
// is the amortized growth of those tables — a small fraction of an
// allocation. Any per-WR or per-CQE allocation adds ≥1 per fetch.
const sparkWavePerFetchCeiling = 0.1

func TestAllocBudgetSparkWave(t *testing.T) {
	// A READ of fetchSize bytes touches a 4 KiB page table entry only
	// every 4096/fetchSize fetches per buffer, so page-table growth
	// stays well below the per-fetch ceiling and the test measures the
	// work-request path.
	const qps, fetches, fetchSize = 16, 512, 32
	wave := func(n int) func() {
		cfg := sparkucx.WaveConfig{System: cluster.KNL(), Seed: 3, QPs: qps, Fetches: n, Size: fetchSize}
		return func() {
			if r := sparkucx.RunWave(cfg); r.Failed {
				t.Fatal("wave failed")
			}
		}
	}
	small, large := wave(fetches), wave(4*fetches)
	small()
	large()
	a, b := testing.AllocsPerRun(3, small), testing.AllocsPerRun(3, large)
	perFetch := (b - a) / (3 * fetches)
	t.Logf("wave allocates %.0f at %d fetches, %.0f at %d: %.3f per fetch (ceiling %.1f)",
		a, fetches, b, 4*fetches, perFetch, sparkWavePerFetchCeiling)
	if perFetch >= sparkWavePerFetchCeiling {
		t.Errorf("%.3f allocations per fetch, ceiling %.1f — the WR, CQ or UCX completion path allocates per request",
			perFetch, sparkWavePerFetchCeiling)
	}
}

// sparkWaveWarmPerQPCeiling bounds the allocations of a whole shuffle
// wave rebuilt on a reused engine, per QP. Table 13 builds every wave of
// a scenario run on one engine per worker, so the engine-generation
// arenas hand each wave the previous wave's devices, QPs, CQs, UCX
// workers and endpoints, fabric ports, address spaces, ODP state and
// telemetry registries. The measured warm wave allocates 37 objects with
// ODP off and 33 with it on, whatever the QP count: cluster and context
// headers, the two executor processes and their request lists — 0.07 per
// QP at 256 QPs per direction. Any per-QP allocation adds ≥1 per QP.
const sparkWaveWarmPerQPCeiling = 0.25

func TestAllocBudgetSparkWaveWarm(t *testing.T) {
	const qps = 256
	for _, odp := range []bool{false, true} {
		eng := sim.New(0)
		cfg := sparkucx.WaveConfig{System: cluster.KNL(), Seed: 3, QPs: qps, Fetches: 1024, Size: 256, ODP: odp, Eng: eng}
		wave := func() {
			if r := sparkucx.RunWave(cfg); r.Failed {
				t.Fatal("wave failed")
			}
		}
		wave() // the first wave fills the arenas
		perQP := testing.AllocsPerRun(3, wave) / (2 * qps)
		t.Logf("ODP %v: a warm wave allocates %.3f per QP (ceiling %.2f)", odp, perQP, sparkWaveWarmPerQPCeiling)
		if perQP >= sparkWaveWarmPerQPCeiling {
			t.Errorf("ODP %v: a warm wave allocates %.3f per QP, ceiling %.2f — a per-wave object (QP, CQ, worker, endpoint, device) is no longer recycled",
				odp, perQP, sparkWaveWarmPerQPCeiling)
		}
	}
}
