// The root package's measured loops: one fixture per loop, shared by
// its Benchmark in bench_test.go, its warm alloc budget and the exact
// work-count pin below. The fabric and transport datapaths are on the
// zero-allocation ownership contract (DESIGN.md §8–§9): packets, entries,
// VL rings, ports, switches, rate states, delivery lines, QPs and WRs
// are all recycled through engine-generation arenas, so a warm trial
// stays within a handful of allocations (the congested trial was
// ~12,450 before the pooling work landed). Allocations are measured with
// testing.AllocsPerRun after a warm-up trial, which reads the same with
// and without -race; wall clock is left to the benchmarks and perfbench.
package odpsim

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
)

// burstPackets is how many packets one fabric trial sends.
const burstPackets = 4096

// sendBurst sends burstPackets pooled READ requests from the first half
// of ports to the second: packet j leaves host j%h for LID h+1+(j+1)%h,
// so on the Clos every flow crosses a spine.
func sendBurst(pool *packet.Pool, ports []*fabric.Port) {
	h := len(ports) / 2
	for j := 0; j < burstPackets; j++ {
		p := pool.Get()
		p.Opcode = packet.OpReadRequest
		p.DLID = uint16(h + 1 + (j+1)%h)
		p.PSN = uint32(j)
		ports[j%h].Send(p)
	}
}

// fabricBurst is the send→deliver fixture of the analytic datapath, the
// congested chain and the Clos: each trial resets the engine, rebuilds
// the fabric and its hosts, enables the switched stage when ccfg is set
// and runs one sendBurst to completion.
type fabricBurst struct {
	eng   *sim.Engine
	ccfg  *congestion.Config // nil: the analytic datapath, no switches
	ports []*fabric.Port
	fab   *fabric.Fabric // the last trial's fabric
}

func newFabricBurst(hosts int, ccfg *congestion.Config) *fabricBurst {
	return &fabricBurst{eng: sim.New(1), ccfg: ccfg, ports: make([]*fabric.Port, hosts)}
}

func (fb *fabricBurst) trial(seed int64) {
	fb.eng.Reset(seed)
	fb.fab = fabric.New(fb.eng, fabric.DefaultConfig())
	for i := range fb.ports {
		fb.ports[i] = fb.fab.AttachPort(uint16(i+1), "host", func(*packet.Packet) {})
	}
	if fb.ccfg != nil {
		fb.fab.EnableCongestion(*fb.ccfg)
	}
	sendBurst(fb.fab.Pool(), fb.ports)
	fb.eng.Run()
}

// datapathBurst is two hosts on the analytic fabric.
func datapathBurst() *fabricBurst { return newFabricBurst(2, nil) }

// congestedBurst is two hosts on opposite edge switches of the default
// chain with PFC on: every packet crosses the 4×-oversubscribed
// inter-switch link, and the host uplink is XOFF/XON-paused while the
// burst drains.
func congestedBurst() *fabricBurst {
	ccfg := congestion.DefaultConfig()
	ccfg.PFC = true
	return newFabricBurst(2, &ccfg)
}

// closBurst is eight hosts round-robin across the four leaves of a
// radix-4 leaf-spine Clos (6 switches, 16 links, per-switch CSR routing
// tables, seeded-hash ECMP on the spine hop).
func closBurst() *fabricBurst {
	ccfg := smallPFC(congestion.ClosTopology(2, 4, 4))
	return newFabricBurst(8, &ccfg)
}

// smallPFC is PFC on topo with a 1 KiB XOFF and a 512 B XON threshold,
// so a small cell pauses under the burst.
func smallPFC(topo congestion.Topology) congestion.Config {
	ccfg := congestion.DefaultConfig()
	ccfg.Topology = topo
	ccfg.PFC = true
	ccfg.XOffBytes = 1 << 10
	ccfg.XOnBytes = 512
	return ccfg
}

// irnTrial is the IRN selective-repeat fixture: a two-node KNL cluster on
// the IRN transport, rebuilt on eng, floods 256 pinned-memory WRITEs over
// a 10%-lossy fabric, so SACK frames, reorder-buffer stashes and
// single-PSN retransmits are all on the path. It returns the client QP
// once every WRITE has completed.
func irnTrial(tb testing.TB, eng *sim.Engine, seed int64) *rnic.QP {
	sys := cluster.KNL()
	sys.LossRate = 0.1
	sys.Transport = "irn"
	cl := sys.BuildOn(eng, seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]

	const n, size = 256, 512
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
		tb.Fatalf("completed %d/%d WRITEs", got, n)
	}
	return qc
}

// warmAllocs runs trial once to fill the arenas, then returns its mean
// allocations over 10 warm runs.
func warmAllocs(trial func()) float64 {
	trial()
	return testing.AllocsPerRun(10, trial)
}

// checkAllocCeiling logs a warm reading next to its ceiling and fails
// the test above it.
func checkAllocCeiling(t *testing.T, what string, avg float64, ceiling int, why string) {
	t.Helper()
	t.Logf("%s allocates %.0f/op (ceiling %d)", what, avg, ceiling)
	if avg > float64(ceiling) {
		t.Errorf("%s allocates %.0f/op, ceiling %d — %s", what, avg, ceiling, why)
	}
}

// The warm-trial ceilings sit at the measured readings, the same with
// and without -race; they leave no headroom, so any new allocation in a
// trial fails its test. The chain's 3 are per-rebuild telemetry
// registration method values; the Clos rebuild adds 2.
const (
	congestedAllocCeiling = 3
	closAllocCeiling      = 5
)

func TestAllocBudgetCongestedSend(t *testing.T) {
	fb, seed := congestedBurst(), int64(0)
	avg := warmAllocs(func() { seed++; fb.trial(seed) })
	checkAllocCeiling(t, "congested send→deliver trial", avg, congestedAllocCeiling,
		"the switched datapath regressed off the warm-allocation contract")
}

func TestAllocBudgetClosSend(t *testing.T) {
	fb, seed := closBurst(), int64(0)
	avg := warmAllocs(func() { seed++; fb.trial(seed) })
	checkAllocCeiling(t, "clos send→deliver trial", avg, closAllocCeiling,
		"graph rebuild or ECMP routing left the warm-allocation contract")
}

// irnAllocCeiling bounds the warm IRN trial. The measured figure is 2
// with and without -race (7 while each rebuild rendered its node names,
// grew its node list by append and allocated its MRs one by one, 9
// while each device bound its receive method value per rebuild, 13
// while Touch and Pin built a page list per call), all of it per
// rebuild: the cluster header and its node list; MRs come from blocks,
// a fraction of an allocation each. RNIC structs, CQs and QPs come from the
// engine-generation arenas (56 before they did), WRs from the engine's
// WR pool, and the per-QP IRN State from the irn.StateFor arena; the
// send, outstanding and completion queues reuse their storage and the
// SACK/stash/retransmit datapath allocates nothing per packet. Any
// per-WR, per-packet or per-SACK allocation adds ≥256. The ceiling is
// the highest -race reading.
const irnAllocCeiling = 2

func TestAllocBudgetIRNSend(t *testing.T) {
	eng := sim.New(1)
	avg := warmAllocs(func() { irnTrial(t, eng, 7) })
	checkAllocCeiling(t, "irn send trial", avg, irnAllocCeiling,
		"the selective-repeat path regressed off the warm-allocation contract")
}

// kvServeColdAllocCeiling bounds one cold kv-serve run on one worker:
// 16 radix-16 pod cells of 65 hosts and 258 switch ports each, built one
// after another on the worker's engine, then 16,384 GETs. The first pod
// builds cold, from blocks; each later pod recycles what the engine's
// arenas and pools hold (QPs, CQs, ports, switches, delivery lines, the
// kv clients and their bound callbacks). Memory registrations come from
// blocks and node names from a process-wide table, so what remains per
// pod is mostly the port and delay-line callbacks and the queues that
// grow past what the previous pod left. The run reads 2,947–2,949 at
// -cpu 1, 2 and 4. Under -race it reads 3,013–3,029: the race detector
// drops sync.Pool entries at random, and the report's fmt calls refill
// them. The ceiling leaves room for that, not for a per-pod regression
// of more than a few objects.
const kvServeColdAllocCeiling = 3080

func TestAllocBudgetKVServeCold(t *testing.T) {
	sc, err := scenario.Lookup("kv-serve")
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = 1
	var buf bytes.Buffer
	// A GC cycle starting inside the measured run would count its own
	// allocations against the budget.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(1, func() {
		buf.Reset()
		if err := scenario.Run(sc, &buf, scenario.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocCeiling(t, "cold kv-serve run", avg, kvServeColdAllocCeiling,
		"the fabric build or a per-host path allocates per object again")
}

// TestWorkCountsExact pins the work each measured loop does: the events
// its engine fires and the counts its fixture exposes. They are pure
// functions of the code and the seed, the same on any host, at any
// GOMAXPROCS or lane count and under -race, so they gate exactly what
// the alloc budgets cannot see: work that allocates nothing, such as one
// extra event per packet or one more retransmit. A changed count is
// explained in its change like a changed golden line.
func TestWorkCountsExact(t *testing.T) {
	check := func(what string, got, want uint64) {
		t.Helper()
		t.Logf("%s = %d", what, got)
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}

	eng := sim.New(1)
	cfg := core.DefaultBench()
	cfg.Eng, cfg.Seed = eng, 1
	r := core.RunMicrobench(cfg) // resets eng first, so read the count after
	check("microbench events", eng.EventsFired(), 22)
	check("microbench packets on wire", r.PacketsOnWire, 12)
	check("microbench retransmits", r.Retransmits, 4)

	for _, c := range []struct {
		name   string
		fb     *fabricBurst
		events uint64
	}{
		{"datapath", datapathBurst(), 4096},
		{"congested", congestedBurst(), 24576},
		{"clos", closBurst(), 32768},
	} {
		c.fb.trial(1)
		check(c.name+" events", c.fb.eng.EventsFired(), c.events)
		check(c.name+" delivered", c.fb.fab.Delivered, burstPackets)
	}

	qc := irnTrial(t, eng, 7)
	check("irn events", eng.EventsFired(), 698)
	check("irn retransmits", qc.Stats.Retransmits, 35)
}

// sparkWavePerFetchCeiling bounds the marginal allocation count of one
// shuffle fetch in a pinned-memory SparkUCX wave: each fetch is one
// ucx GET, one send work request and one CQE. The WR object comes from
// the engine's WR pool, the send, outstanding and completion queues
// reuse their storage, the CQ is polled into a fixed buffer and the
// completion lands in the worker's dense table, so the per-fetch cost
// is the amortized growth of those tables — a small fraction of an
// allocation: it reads 0.009 (0.04 while the page table held one object
// per touched page). Any per-WR or per-CQE allocation adds ≥1 per fetch.
const sparkWavePerFetchCeiling = 0.02

func TestAllocBudgetSparkWave(t *testing.T) {
	// Each buffer's page table is one value table, grown when its
	// first page is touched, so the test measures the work-request path.
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
	t.Logf("wave allocates %.0f at %d fetches, %.0f at %d: %.3f per fetch (ceiling %.2f)",
		a, fetches, b, 4*fetches, perFetch, sparkWavePerFetchCeiling)
	if perFetch >= sparkWavePerFetchCeiling {
		t.Errorf("%.3f allocations per fetch, ceiling %.2f — the WR, CQ or UCX completion path allocates per request",
			perFetch, sparkWavePerFetchCeiling)
	}
}

// sparkWaveWarmPerQPCeiling bounds the allocations of a whole shuffle
// wave rebuilt on a reused engine, per QP. Table 13 builds every wave of
// a scenario run on one engine per worker, so the engine-generation
// arenas hand each wave the previous wave's devices, QPs, CQs, UCX
// workers and endpoints, fabric ports, address spaces, ODP state and
// telemetry registries. The measured warm wave allocates 21 objects with
// ODP off or on, whatever the QP count: cluster and context headers, the
// two executor processes and their request lists — 0.041 per QP at 256
// QPs per direction (28 while each build rendered its node names, grew
// its node list by append and allocated its MRs one by one). Any per-QP
// allocation adds ≥1 per QP.
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

// sparkWaveColdAllocCeiling bounds one cold Table-13 wave: a fresh
// engine, ODP on, 256 QPs per direction and 1024 fetches, which builds
// 512 QPs, their 1024 WR queues, 512 Local ACK Timeout events, 512 UCX
// endpoints and the ODP pair tables of both devices. QPs, queue chunks,
// timer events and endpoints come from blocks, pair-table rows and
// page registrant lists from the engine's ODP scratch, and the timers
// arm the QP itself, so the wave reads 364–365 objects at -cpu 1, 2
// and 4, with and without -race, where it read 487–488 while each
// page's registrant list grew one doubling at a time and 7,655 while
// each QP took its own record, two bound callbacks, a timer event, an
// endpoint, pair-table rows and doubling queue arrays. The ceiling
// leaves room for a few objects of sync.Pool noise; a per-QP
// allocation adds ≥512.
const sparkWaveColdAllocCeiling = 372

func TestAllocBudgetSparkWaveCold(t *testing.T) {
	const qps = 256
	cfg := sparkucx.WaveConfig{System: cluster.KNL(), Seed: 3, QPs: qps, Fetches: 1024, Size: 256, ODP: true}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(1, func() {
		cfg.Eng = sim.New(0)
		if r := sparkucx.RunWave(cfg); r.Failed {
			t.Fatal("wave failed")
		}
	})
	checkAllocCeiling(t, "cold ODP wave", avg, sparkWaveColdAllocCeiling,
		"a QP, queue, timer, endpoint or pair-table row allocates per object again")
}
