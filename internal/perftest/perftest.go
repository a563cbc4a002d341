// Package perftest reimplements the standard InfiniBand micro-benchmarks
// (perftest's ib_read_lat / ib_read_bw) over the simulator's verbs layer,
// extended with the ODP options the real suite lacks — per-side ODP,
// implicit ODP and prefetching — so the registration-mode comparisons of
// Li et al. (the paper's refs [19], [20]) can be reproduced: ODP's
// first-access penalty, its steady-state parity with pinned memory, and
// the effect of prefetch.
package perftest

import (
	"fmt"
	"sort"
	"strings"

	"odpsim/internal/cluster"
	"odpsim/internal/core"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
)

// Config parameterizes a latency or bandwidth measurement.
type Config struct {
	System cluster.System
	Seed   int64
	// Size is the message size in bytes.
	Size int
	// Iters is the number of measured iterations.
	Iters int
	// Mode selects the ODP sides (core.NoODP … core.BothODP).
	Mode core.ODPMode
	// Implicit enables Implicit ODP on the ODP sides (whole address
	// space, no explicit registration) instead of Explicit ODP.
	Implicit bool
	// Prefetch advises the ODP pages into the QP context before the
	// measurement (ibv_advise_mr).
	Prefetch bool
	// Window is the number of outstanding operations for bandwidth runs
	// (ib_read_bw's --tx-depth; bounded by the device's MaxRdAtomic).
	Window int
	// TouchPages rotates the target across this many pages so each
	// iteration can fault (0 = single buffer slot, perftest's default).
	TouchPages int
}

// DefaultConfig returns an ib_read_lat-like setup: 8-byte READs on KNL.
func DefaultConfig() Config {
	return Config{System: cluster.KNL(), Seed: 1, Size: 8, Iters: 1000, Window: 16}
}

// LatencyResult summarizes a latency run the way perftest prints it.
type LatencyResult struct {
	Size  int
	Iters int
	// First is the first iteration (carries the ODP fault, if any).
	First sim.Time
	// Summary of the remaining (steady-state) iterations, in µs.
	Min, Typical, Avg, Max, P99 float64
}

// String renders a perftest-style row.
func (r LatencyResult) String() string {
	return fmt.Sprintf("%8d %10d %11.2f %12.2f %11.2f %11.2f %11.2f %14.2f",
		r.Size, r.Iters, r.Min, r.Typical, r.Avg, r.Max, r.P99, r.First.Micros())
}

// LatencyHeader is the column header matching LatencyResult.String.
const LatencyHeader = "  #bytes  #iters   t_min[µs] t_typical[µs]   t_avg[µs]   t_max[µs]   t_p99[µs]  t_first[µs]"

// env builds the two-node measurement environment.
type env struct {
	cl         *cluster.Cluster
	qp         *rnic.QP
	cq         *rnic.CQ
	lbuf, rbuf hostmem.Addr
	buflen     int
}

func newEnv(cfg Config) *env {
	if cfg.Size <= 0 || cfg.Iters <= 0 {
		panic("perftest: Size and Iters must be positive")
	}
	cl := cfg.System.Build(cfg.Seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]
	pages := cfg.TouchPages
	if pages < 1 {
		pages = 1
	}
	buflen := pages * hostmem.PageSize
	e := &env{cl: cl, buflen: buflen}
	e.lbuf = client.AS.Alloc(buflen)
	e.rbuf = server.AS.Alloc(buflen)

	// On demand: Explicit ODP normally, rerouted through the NPR shadow
	// table (or pinning) when the node's mode says so. Implicit ODP
	// registers nothing on the on-demand side.
	reg := func(nic *rnic.RNIC, addr hostmem.Addr, onDemand bool) {
		if onDemand && cfg.Implicit {
			nic.EnableImplicitODP()
		} else {
			nic.RegisterMR(addr, buflen, onDemand)
		}
	}
	reg(client, e.lbuf, cfg.Mode.Client())
	reg(server, e.rbuf, cfg.Mode.Server())

	e.cq = rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	e.qp = client.CreateQP(e.cq, e.cq)
	qs := server.CreateQP(scq, scq)
	params := rnic.ConnParams{CACK: 14, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	rnic.ConnectPair(e.qp, qs, params, params)

	if cfg.Prefetch {
		if cfg.Mode.Client() {
			client.AdviseMR(e.qp.Num, e.lbuf, buflen)
		}
		if cfg.Mode.Server() {
			server.AdviseMR(qs.Num, e.rbuf, buflen)
		}
		cl.Eng.Run() // drain the prefetch before measuring
	}
	return e
}

// ReadLat measures RDMA READ latency, one operation at a time (the
// ib_read_lat methodology), reporting the first iteration separately so
// the ODP fault cost is visible.
func ReadLat(cfg Config) LatencyResult {
	e := newEnv(cfg)
	pages := cfg.TouchPages
	if pages < 1 {
		pages = 1
	}
	samples := make([]float64, 0, cfg.Iters)
	var first sim.Time
	e.cl.Eng.Go("lat", func(p *sim.Proc) {
		var wc [1]rnic.CQE
		for i := 0; i < cfg.Iters; i++ {
			off := hostmem.Addr((i % pages) * hostmem.PageSize)
			start := p.Now()
			e.qp.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead,
				LocalAddr: e.lbuf + off, RemoteAddr: e.rbuf + off, Len: cfg.Size})
			e.cq.WaitN(p, wc[:])
			d := p.Now() - start
			if i == 0 {
				first = d
			} else {
				samples = append(samples, d.Micros())
			}
		}
	})
	e.cl.Eng.MustRun()

	sort.Float64s(samples)
	s := stats.Summarize(samples)
	return LatencyResult{
		Size: cfg.Size, Iters: cfg.Iters, First: first,
		Min: s.Min, Typical: s.P50, Avg: s.Mean, Max: s.Max, P99: s.P99,
	}
}

// BandwidthResult summarizes a bandwidth run.
type BandwidthResult struct {
	Size    int
	Iters   int
	Elapsed sim.Time
	// MBps is the achieved goodput in MB/s (10^6 bytes).
	MBps float64
	// MsgRate is in million messages per second.
	MsgRate float64
}

// String renders a perftest-style row.
func (r BandwidthResult) String() string {
	return fmt.Sprintf("%8d %10d %12.2f %14.3f", r.Size, r.Iters, r.MBps, r.MsgRate)
}

// BandwidthHeader is the column header matching BandwidthResult.String.
const BandwidthHeader = "  #bytes  #iters      BW[MB/s]   MsgRate[Mpps]"

// ReadBW measures RDMA READ goodput with Window outstanding operations
// (the ib_read_bw methodology).
func ReadBW(cfg Config) BandwidthResult {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	e := newEnv(cfg)
	pages := cfg.TouchPages
	if pages < 1 {
		pages = 1
	}
	var elapsed sim.Time
	e.cl.Eng.Go("bw", func(p *sim.Proc) {
		var wc [1]rnic.CQE
		start := p.Now()
		posted, completed := 0, 0
		for posted < cfg.Window && posted < cfg.Iters {
			off := hostmem.Addr((posted % pages) * hostmem.PageSize)
			e.qp.PostSend(rnic.SendWR{ID: uint64(posted), Op: rnic.OpRead,
				LocalAddr: e.lbuf + off, RemoteAddr: e.rbuf + off, Len: cfg.Size})
			posted++
		}
		for completed < cfg.Iters {
			e.cq.WaitN(p, wc[:])
			completed++
			if posted < cfg.Iters {
				off := hostmem.Addr((posted % pages) * hostmem.PageSize)
				e.qp.PostSend(rnic.SendWR{ID: uint64(posted), Op: rnic.OpRead,
					LocalAddr: e.lbuf + off, RemoteAddr: e.rbuf + off, Len: cfg.Size})
				posted++
			}
		}
		elapsed = p.Now() - start
	})
	e.cl.Eng.MustRun()

	bytes := float64(cfg.Size) * float64(cfg.Iters)
	secs := elapsed.Seconds()
	return BandwidthResult{
		Size: cfg.Size, Iters: cfg.Iters, Elapsed: elapsed,
		MBps:    bytes / secs / 1e6,
		MsgRate: float64(cfg.Iters) / secs / 1e6,
	}
}

// CompareModes runs ReadLat across all four ODP modes (plus prefetch on
// the ODP sides) and renders a comparison table — the Li et al. style
// registration-mode study.
func CompareModes(base Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %s\n", "mode", LatencyHeader)
	for _, m := range []core.ODPMode{core.NoODP, core.ServerODP, core.ClientODP, core.BothODP} {
		cfg := base
		cfg.Mode = m
		r := ReadLat(cfg)
		fmt.Fprintf(&b, "%-28s %s\n", m.String(), r)
		if m != core.NoODP {
			cfg.Prefetch = true
			r = ReadLat(cfg)
			fmt.Fprintf(&b, "%-28s %s\n", m.String()+" +prefetch", r)
		}
	}
	return b.String()
}
