// Benchmarks of the design choices behind the paper's results
// (ablations), of the extensions beyond its evaluation, and of the
// simulator's hot loops. Each reports its headline quantity via
// b.ReportMetric. The paper's figures and tables themselves are the
// registered scenarios behind `odpsim run <name>` (`-quick` for reduced
// grids).
package odpsim

import (
	"testing"

	"odpsim/internal/apps/kvstore"
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/hostmem"
	"odpsim/internal/parallel"
	"odpsim/internal/perftest"
	"odpsim/internal/regcache"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/softrel"
)

// --- Ablations: each design choice in DESIGN.md §4, toggled off ---

// BenchmarkAblation_DammingQuirk compares the two-READ schedule on the
// quirky ConnectX-4 vs the fixed ConnectX-6: the quirk is load-bearing for
// the Figure-4/5 timeouts.
func BenchmarkAblation_DammingQuirk(b *testing.B) {
	for _, sys := range []cluster.System{cluster.KNL(), cluster.AzureHBv2()} {
		b.Run(sys.Device.Name, func(b *testing.B) {
			var exec sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.System = sys
				cfg.Interval = sim.Millisecond
				cfg.Seed = int64(i + 1)
				exec = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
		})
	}
}

// BenchmarkAblation_UpdateOrder compares LIFO vs FIFO page-status update
// order in the Figure-11a run: LIFO is what starves the earliest ops.
func BenchmarkAblation_UpdateOrder(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "LIFO"
		if fifo {
			name = "FIFO"
		}
		b.Run(name, func(b *testing.B) {
			var lastEarlyOp float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.Size = 32
				cfg.NumQPs = 128
				cfg.NumOps = 128
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.Device.ODP.UpdatesFIFO = fifo
				r := core.RunMicrobench(cfg)
				var worst sim.Time
				for op := 0; op < 32; op++ {
					if r.CompletionTime[op] > worst {
						worst = r.CompletionTime[op]
					}
				}
				lastEarlyOp = worst.Millis()
			}
			b.ReportMetric(lastEarlyOp, "ms-first32ops-done")
		})
	}
}

// BenchmarkAblation_SpuriousCost compares the flood run with and without
// the spurious pipeline cost: without it, stale statuses clear as fast as
// updates alone allow and the flood shrinks.
func BenchmarkAblation_SpuriousCost(b *testing.B) {
	for _, free := range []bool{false, true} {
		name := "calibrated"
		if free {
			name = "free"
		}
		b.Run(name, func(b *testing.B) {
			var exec sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.NumOps = 2048
				cfg.NumQPs = 64
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.Device.ODP.SpuriousFree = free
				exec = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
		})
	}
}

// BenchmarkAblation_RNRWaitFactor compares the observed ≈3.5× RNR wait
// against a literal-spec requester that waits exactly the advertised
// delay: the damming window (and Figure 6a's 4.5 ms boundary) tracks it.
func BenchmarkAblation_RNRWaitFactor(b *testing.B) {
	for _, factor := range []float64{3.5, 1.0} {
		name := "observed3.5x"
		if factor == 1.0 {
			name = "spec1.0x"
		}
		b.Run(name, func(b *testing.B) {
			var timeouts uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ServerODP
				cfg.Interval = sim.FromMillis(2)
				cfg.Seed = int64(i + 1)
				cfg.System.Device.RNRWaitFactor = factor
				timeouts = core.RunMicrobench(cfg).Timeouts
			}
			b.ReportMetric(float64(timeouts), "timeouts@2ms")
		})
	}
}

// BenchmarkAblation_SerialPipeline compares the calibrated serial ODP
// pipeline against an idealized fast one (tiny update cost): the
// Figure-11a tail collapses.
func BenchmarkAblation_SerialPipeline(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "calibrated"
		if fast {
			name = "idealized"
		}
		b.Run(name, func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.Size = 32
				cfg.NumQPs = 128
				cfg.NumOps = 128
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				if fast {
					cfg.System.Device.ODP.QPUpdateCost = sim.Microsecond
				}
				r := core.RunMicrobench(cfg)
				last = 0
				for _, ct := range r.CompletionTime {
					if ct > last {
						last = ct
					}
				}
			}
			b.ReportMetric(last.Millis(), "ms-last-completion")
		})
	}
}

// BenchmarkAblation_Congestion reruns the flood on the switched fabric
// of internal/congestion with PFC on: the millions of flood packets now
// queue in switch buffers and consume wire time too, yet the flood
// stays, since the ODP pipeline, not the wire, bounds it.
func BenchmarkAblation_Congestion(b *testing.B) {
	lossless := congestion.DefaultConfig()
	lossless.PFC = true
	for _, net := range []*congestion.Config{nil, &lossless} {
		name := "latency-only"
		if net != nil {
			name = "switched-lossless"
		}
		b.Run(name, func(b *testing.B) {
			var exec sim.Time
			var retrans uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.NumOps = 2048
				cfg.NumQPs = 64
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.Congestion = net
				r := core.RunMicrobench(cfg)
				exec, retrans = r.ExecTime, r.Retransmits
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
			b.ReportMetric(float64(retrans), "retransmits")
		})
	}
}

// --- Extensions beyond the paper's evaluation ---

// BenchmarkMotivation_RegistrationStrategies compares the §VIII-A
// registration-management baselines against ODP on a reuse-heavy trace —
// the tradeoff that motivates ODP (§I).
func BenchmarkMotivation_RegistrationStrategies(b *testing.B) {
	costs := regcache.DefaultCosts()
	strategies := []struct {
		name string
		mk   func(nic *rnicRNIC) regcache.Strategy
	}{
		{"direct-pin", func(n *rnicRNIC) regcache.Strategy { return regcache.NewDirectPin(n, costs) }},
		{"pin-down-cache", func(n *rnicRNIC) regcache.Strategy { return regcache.NewPinDownCache(n, costs, 1<<20) }},
		{"batched-dereg", func(n *rnicRNIC) regcache.Strategy { return regcache.NewBatchedDereg(n, costs, 1<<20, 8) }},
		{"odp", func(n *rnicRNIC) regcache.Strategy { return regcache.NewODPOnce(n) }},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			var res regcache.WorkloadResult
			for i := 0; i < b.N; i++ {
				cl := cluster.ReedbushH().Build(int64(i+1), 1)
				strat := s.mk(cl.Nodes[0])
				trace := regcache.SyntheticTrace(cl.Eng, cl.Nodes[0], 64, 16384, 1000, 0.25)
				res = regcache.RunWorkload(cl.Eng, strat, trace)
			}
			b.ReportMetric(res.Time.Millis(), "ms-total")
			b.ReportMetric(float64(res.MaxPinned)/1024, "KiB-pinned")
		})
	}
}

type rnicRNIC = rnic.RNIC

// BenchmarkExtension_SoftwareReliability measures failure-detection time:
// hardware RC retry exhaustion vs the §VIII-C software-timeout approach
// over UD, against an unreachable peer.
func BenchmarkExtension_SoftwareReliability(b *testing.B) {
	b.Run("UD-software", func(b *testing.B) {
		var detect sim.Time
		for i := 0; i < b.N; i++ {
			cl := cluster.ReedbushH().Build(int64(i+1), 2)
			cfg := softrel.DefaultConfig()
			cfg.Retries = 3
			cli := softrel.NewClient(cl.Nodes[0], cfg)
			cl.Eng.Go("caller", func(p *sim.Proc) {
				start := p.Now()
				_ = cli.Call(p, 99, 1, 64)
				detect = p.Now() - start
			})
			cl.Eng.Run()
		}
		b.ReportMetric(detect.Millis(), "ms-detect")
	})
	b.Run("RC-hardware", func(b *testing.B) {
		var detect sim.Time
		for i := 0; i < b.N; i++ {
			detect = core.MeasureTimeout(cluster.ReedbushH(), 1, int64(i+1)) * 4 // 1+3 attempts
		}
		b.ReportMetric(detect.Millis(), "ms-detect")
	})
}

// BenchmarkWorkaround_Prefetch compares the Figure-11a flood run with and
// without ibv_advise_mr-style prefetching of the fetch buffers — the
// Li et al. receiver-side prefetch that sidesteps the flood entirely.
func BenchmarkWorkaround_Prefetch(b *testing.B) {
	for _, prefetch := range []bool{false, true} {
		name := "faulting"
		if prefetch {
			name = "prefetched"
		}
		b.Run(name, func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = runFloodWithPrefetch(int64(i+1), prefetch)
			}
			b.ReportMetric(last.Millis(), "ms-last-completion")
		})
	}
}

// runFloodWithPrefetch builds the Figure-11a scenario by hand so the
// prefetch can be issued per QP before traffic starts.
func runFloodWithPrefetch(seed int64, prefetch bool) sim.Time {
	cl := cluster.KNL().Build(seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]
	const nqp, size = 128, 32
	buflen := nqp * size
	lbuf := client.AS.Alloc(buflen)
	rbuf := server.AS.Alloc(buflen)
	client.RegisterMR(lbuf, buflen, true)
	server.RegisterMR(rbuf, buflen, false)
	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 18, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	var last sim.Time
	qps := make([]*rnic.QP, nqp)
	for i := 0; i < nqp; i++ {
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		rnic.ConnectPair(qc, qs, params, params)
		qps[i] = qc
		if prefetch {
			client.AdviseMR(qc.Num, lbuf, buflen)
		}
	}
	if prefetch {
		// Prefetch at registration time: the pipeline drains before the
		// application starts communicating.
		cl.Eng.Run()
	}
	start := cl.Eng.Now()
	for i, qc := range qps {
		off := uint64(i * size)
		qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead,
			LocalAddr: lbuf + hostmemAddr(off), RemoteAddr: rbuf + hostmemAddr(off), Len: size})
	}
	cl.Eng.Run()
	cqes := make([]rnic.CQE, cq.Len())
	for _, e := range cqes[:cq.Poll(cqes)] {
		if e.At-start > last {
			last = e.At - start
		}
	}
	return last
}

type hostmemAddr = hostmem.Addr

// BenchmarkExtension_PerftestLatency runs the ib_read_lat equivalent per
// registration mode — the Li et al. first-access/steady-state comparison.
func BenchmarkExtension_PerftestLatency(b *testing.B) {
	for _, m := range []core.ODPMode{core.NoODP, core.ServerODP} {
		b.Run(m.String(), func(b *testing.B) {
			var r perftest.LatencyResult
			for i := 0; i < b.N; i++ {
				cfg := perftest.DefaultConfig()
				cfg.Iters = 500
				cfg.Mode = m
				cfg.Seed = int64(i + 1)
				r = perftest.ReadLat(cfg)
			}
			b.ReportMetric(r.Typical, "µs-typical")
			b.ReportMetric(r.First.Micros(), "µs-first")
		})
	}
}

// BenchmarkExtension_KVStore measures the HERD-style store's throughput —
// the §VIII-C design that never meets the RC timeout machinery.
func BenchmarkExtension_KVStore(b *testing.B) {
	var perOp sim.Time
	for i := 0; i < b.N; i++ {
		cl := cluster.ReedbushH().Build(int64(i+1), 2)
		cfg := softrel.DefaultConfig()
		srv := kvstore.NewServer(cl.Nodes[1], cfg, 300*sim.Nanosecond)
		cli := kvstore.NewClient(cl.Nodes[0], cfg, srv)
		const n = 1000
		cl.Eng.Go("client", func(p *sim.Proc) {
			start := p.Now()
			for k := uint64(0); k < n; k++ {
				if err := cli.Put(p, k, k); err != nil {
					b.Error(err)
					return
				}
			}
			perOp = (p.Now() - start) / n
		})
		cl.Eng.Run()
	}
	b.ReportMetric(perOp.Micros(), "µs/op")
}

// --- Micro-loops: the sweep runner, the engine hot path and the
// datapaths. They time the loops; the warm alloc budgets and
// TestWorkCountsExact gate allocations and work, and perfbench measures
// wall clock end to end. ---

// benchSweepGrid is the reduced Fig-4 sweep the runner benchmarks share.
func benchSweepGrid(b *testing.B, jobs int) {
	parallel.SetJobs(jobs)
	defer parallel.SetJobs(0)
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Seed = int64(i + 1)
		core.SweepExecTime(base, core.IntervalRange(0, 6, 1), 3)
	}
}

// BenchmarkSweepSequential is the -j 1 baseline for the multi-trial
// Figure-4 sweep.
func BenchmarkSweepSequential(b *testing.B) { benchSweepGrid(b, 1) }

// BenchmarkSweepParallel is the same sweep on the full worker pool; the
// wall-clock ratio against BenchmarkSweepSequential is the fan-out
// speedup (≈1x on a single-core host, ≥2x from 4 cores up).
func BenchmarkSweepParallel(b *testing.B) { benchSweepGrid(b, 0) }

// BenchmarkSweepTimeoutProbability exercises the probability sweep the
// Fig-6/7 drivers use, on the worker pool.
func BenchmarkSweepTimeoutProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Mode = core.ServerODP
		base.Seed = int64(i + 1)
		core.SweepTimeoutProbability(base, core.IntervalRange(0, 6, 1), 4, "1.28 ms")
	}
}

// BenchmarkSweepEngineEventLoop measures the engine hot path alone: the
// RC requester's schedule-ACK-cancel pattern on a Reset-reused engine.
// The event free list and value Timers keep a warm loop allocation-free
// (TestEngineAllocsFlat pins it at zero).
func BenchmarkSweepEngineEventLoop(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Reset(int64(i))
		var pending sim.Timer
		for j := 0; j < 1024; j++ {
			pending.Cancel() // no-op on the zero Timer
			pending = eng.After(sim.Time(j+1)*sim.Microsecond, func() {})
			eng.After(sim.Time(j)*sim.Microsecond, func() {})
		}
		eng.Run()
	}
}

// BenchmarkSweepDatapathSendDeliver measures the pooled packet datapath:
// the datapathBurst fixture, a rebuilt fabric and a 4096-packet
// send→deliver stream per iteration, everything drawn from the
// engine-generation arenas (DESIGN.md §8). Cold construction is inside
// the timed loop, so allocs/op falls with b.N; the warm budgets in
// internal/fabric and TestWorkCountsExact gate it.
func BenchmarkSweepDatapathSendDeliver(b *testing.B) { benchFabricBurst(b, datapathBurst()) }

// BenchmarkCongestedSend measures the same stream through the switched
// lossless-fabric stage of internal/congestion (congestedBurst). The
// delta against BenchmarkSweepDatapathSendDeliver is the per-packet cost
// of the switch model: buffer accounting, VL queues, the PFC state
// machine. TestAllocBudgetCongestedSend pins the warm trial budget.
func BenchmarkCongestedSend(b *testing.B) { benchFabricBurst(b, congestedBurst()) }

// BenchmarkCongestedSendClos is the stream on a leaf-spine Clos
// (closBurst): every packet is routed by the per-switch CSR tables and
// the spine hop is picked by seeded-hash ECMP, so the delta against
// BenchmarkCongestedSend is the cost of graph routing over the
// hard-wired chain. TestAllocBudgetClosSend pins the warm trial budget.
func BenchmarkCongestedSendClos(b *testing.B) { benchFabricBurst(b, closBurst()) }

func benchFabricBurst(b *testing.B, fb *fabricBurst) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb.trial(int64(i))
	}
}

// BenchmarkIRNSend measures the IRN selective-repeat datapath: the
// irnTrial fixture, a two-node cluster rebuilt per iteration on a
// Reset-reused engine, flooding 256 pinned-memory WRITEs over a
// 10%-lossy fabric. TestAllocBudgetIRNSend pins the warm trial budget.
func BenchmarkIRNSend(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		irnTrial(b, eng, int64(i+1))
	}
}

// BenchmarkSweepMicrobenchReuse measures one default micro-benchmark run
// on a Reset-reused engine — the per-trial cost inside every sweep.
func BenchmarkSweepMicrobenchReuse(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultBench()
		cfg.Eng = eng
		cfg.Seed = int64(i + 1)
		core.RunMicrobench(cfg)
	}
}
