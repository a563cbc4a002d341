// Package core is the paper's contribution as a toolkit: the Figure-3
// micro-benchmark, the wrong-LID timeout probe behind Figure 2, sweep
// drivers that regenerate every figure of the evaluation, detectors that
// identify packet damming and packet flood in captures, and the
// software-side workarounds §IX-A proposes.
package core

import (
	"fmt"

	"odpsim/internal/capture"
	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// ODPMode selects which sides of the connection register their buffers
// with on-demand paging (§IV-A's client-side / server-side / both-side
// terminology; the client issues READs, the server owns the remote
// buffer).
type ODPMode int

// ODP modes.
const (
	NoODP ODPMode = iota
	ServerODP
	ClientODP
	BothODP
)

// String implements fmt.Stringer.
func (m ODPMode) String() string {
	switch m {
	case NoODP:
		return "No ODP"
	case ServerODP:
		return "Server-side ODP"
	case ClientODP:
		return "Client-side ODP"
	case BothODP:
		return "Both-side ODP"
	default:
		return fmt.Sprintf("ODPMode(%d)", int(m))
	}
}

// BenchConfig parameterizes the micro-benchmark exactly like the
// simplified C code of Figure 3: message size, number of operations,
// number of QPs and the interval between posts, plus the connection
// attributes the paper varies.
type BenchConfig struct {
	System cluster.System
	Seed   int64

	Size     int      // message size per operation (bytes)
	NumOps   int      // number of READ operations
	NumQPs   int      // QPs used round-robin (Figure 3's num_qps)
	Interval sim.Time // sleep between posts
	Mode     ODPMode

	CACK        int
	RetryCount  int
	MinRNRDelay sim.Time

	// OpOverride, when non-nil, chooses the operation type per index
	// (used by the §V-C variants where the second operation is a WRITE
	// or SEND). Default is READ for every op. RunMicrobench posts one
	// server receive per SEND, none for the other operations.
	OpOverride func(i int) rnic.SendOp

	// TouchAllButFirst pre-touches every communication page except the
	// first operation's, reproducing the §V-C control experiment.
	TouchAllButFirst bool

	// PostOverhead is the per-post CPU cost; 0 selects a default scaled
	// by the system's CPUFactor.
	PostOverhead sim.Time

	// WithCapture attaches an ibdump-style capture (memory-heavy for
	// large runs; packet *counts* are always available).
	WithCapture bool

	// DummyPing enables the §IX-A workaround: a software timer posting
	// a dummy READ every DummyPingInterval so the responder detects PSN
	// gaps quickly instead of waiting out the timeout.
	DummyPing         bool
	DummyPingInterval sim.Time

	// SampleEvery, when positive, scrapes the cluster's counter
	// registries on the sim clock at that interval, the way a monitoring
	// daemon polls `rdma statistic` — no packet capture needed. The
	// series lands in BenchResult.Telemetry.
	SampleEvery sim.Time

	// Eng, when non-nil, is Reset with the trial seed and reused as the
	// simulation engine, recycling event storage across a sweep's
	// trials. The run is byte-identical to one on a fresh engine. An
	// engine must not be shared by concurrent trials; the sweep layer
	// keeps one per parallel worker (see parallel.Engines).
	Eng *sim.Engine
}

// DefaultBench returns the §V configuration: KNL, 100-byte messages, one
// QP, C_ACK=1, C_retry=7, minimal RNR NAK delay 1.28 ms, both-side ODP.
func DefaultBench() BenchConfig {
	return BenchConfig{
		System:      cluster.KNL(),
		Seed:        1,
		Size:        100,
		NumOps:      2,
		NumQPs:      1,
		Mode:        BothODP,
		CACK:        1,
		RetryCount:  7,
		MinRNRDelay: sim.FromMillis(1.28),
	}
}

// BenchResult reports one micro-benchmark run.
type BenchResult struct {
	ExecTime sim.Time
	// Failed reports an IBV_WC_RETRY_EXC_ERR abort (retry budget
	// exhausted), as in the omitted SparkUCX samples.
	Failed bool

	Timeouts       uint64
	Retransmits    uint64
	RNRNaksSent    uint64
	NakSeqSent     uint64
	DammedDrops    uint64
	ClientFaults   uint64
	SpuriousTotal  uint64
	PacketsOnWire  uint64
	CompletionTime []sim.Time // per op index; -1 if failed

	Cap *capture.Capture // nil unless WithCapture

	// Telemetry holds the sampled counter time-series (nil unless
	// SampleEvery was set), and Final the end-of-run counter snapshot
	// (always taken).
	Telemetry *telemetry.TimeSeries
	Final     telemetry.Snapshot
}

// TimedOut reports whether any Local-ACK timeout fired during the run —
// the event whose probability Figures 6 and 7 plot.
func (r *BenchResult) TimedOut() bool { return r.Timeouts > 0 }

// RunMicrobench executes the Figure-3 micro-benchmark once and returns
// its measurements.
func RunMicrobench(cfg BenchConfig) *BenchResult {
	if cfg.NumOps <= 0 || cfg.NumQPs <= 0 || cfg.Size <= 0 {
		panic("core: NumOps, NumQPs and Size must be positive")
	}
	cl := cfg.System.BuildOn(cfg.Eng, cfg.Seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]

	var cap_ *capture.Capture
	if cfg.WithCapture {
		cap_ = capture.Attach(cl.Fab)
	}

	// Communication buffers are aligned to 4096-byte boundaries and laid
	// out as local_buf[size*i] / remote_buf[size*i] (Figure 3, Figure 10).
	buflen := cfg.Size * cfg.NumOps
	lbuf := client.AS.Alloc(buflen)
	rbuf := server.AS.Alloc(buflen)
	// The "ODP side" of each mode is a managed registration: it follows
	// the node's memory mode (odp normally, npr/pin when the System says
	// so), which is how `memory:` sweeps reroute every benchmark.
	switch cfg.Mode {
	case ClientODP, BothODP:
		client.RegisterManagedMR(lbuf, buflen)
	default:
		client.RegisterMR(lbuf, buflen)
	}
	switch cfg.Mode {
	case ServerODP, BothODP:
		server.RegisterManagedMR(rbuf, buflen)
	default:
		server.RegisterMR(rbuf, buflen)
	}
	if cfg.TouchAllButFirst {
		firstPage := hostmem.PageOf(lbuf)
		for _, p := range hostmem.PagesSpanned(lbuf, buflen) {
			if p != firstPage {
				client.AS.Touch(hostmem.PageBase(p), hostmem.PageSize)
			}
		}
		firstPage = hostmem.PageOf(rbuf)
		for _, p := range hostmem.PagesSpanned(rbuf, buflen) {
			if p != firstPage {
				server.AS.Touch(hostmem.PageBase(p), hostmem.PageSize)
			}
		}
	}

	cqC := rnic.NewCQ(cl.Eng)
	cqS := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: cfg.CACK, RetryCount: cfg.RetryCount, MinRNRDelay: cfg.MinRNRDelay}
	qps := make([]*rnic.QP, cfg.NumQPs)
	for i := range qps {
		qc := client.CreateQP(cqC, cqC)
		qs := server.CreateQP(cqS, cqS)
		rnic.ConnectPair(qc, qs, params, params)
		qps[i] = qc
		if cfg.OpOverride != nil {
			// Each SEND consumes one receive on the server QP it lands
			// on; op j posts on QP j mod NumQPs, so that QP gets one
			// receive per SEND among its ops, in post order.
			for j := i; j < cfg.NumOps; j += cfg.NumQPs {
				if cfg.OpOverride(j) == rnic.OpSend {
					qs.PostRecv(rnic.RecvWR{ID: uint64(j), Addr: rbuf, Len: cfg.Size})
				}
			}
		}
	}

	post := cfg.PostOverhead
	if post == 0 {
		post = sim.Time(float64(300*sim.Nanosecond) * cfg.System.CPUFactor)
	}

	res := &BenchResult{CompletionTime: make([]sim.Time, cfg.NumOps)}
	for i := range res.CompletionTime {
		res.CompletionTime[i] = -1
	}

	var sampler *telemetry.Sampler
	if cfg.SampleEvery > 0 {
		sampler = telemetry.NewSampler(cl.Eng, cl.Telemetry(), cfg.SampleEvery)
	}
	// The process reads the knobs it needs from locals: capturing cfg
	// would move the whole BenchConfig to the heap on every trial.
	numOps, numQPs, size, interval := cfg.NumOps, cfg.NumQPs, cfg.Size, cfg.Interval
	opAt, dummyPing, pingEvery := cfg.OpOverride, cfg.DummyPing, cfg.DummyPingInterval
	cl.Eng.Go("microbench", func(p *sim.Proc) {
		start := p.Now()
		if sampler != nil {
			sampler.Start()
		}
		var pinger *DummyPinger
		if dummyPing {
			pinger = StartDummyPinger(cl.Eng, qps[0], lbuf, rbuf, pingEvery)
		}
		for i := 0; i < numOps; i++ {
			op := rnic.OpRead
			if opAt != nil {
				op = opAt(i)
			}
			off := hostmem.Addr(size * i)
			qps[i%numQPs].PostSend(rnic.SendWR{
				ID: uint64(i), Op: op,
				LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size,
			})
			p.Sleep(post)
			if interval > 0 {
				p.Sleep(interval)
			}
		}
		// wait(): poll the CQ until every operation completed (or the
		// QP died).
		done := 0
		var wc [1]rnic.CQE
		for done < numOps {
			cqC.WaitN(p, wc[:])
			if e := &wc[0]; int(e.WRID) < numOps && res.CompletionTime[e.WRID] < 0 {
				done++
				if e.Status == rnic.WCSuccess {
					res.CompletionTime[e.WRID] = e.At
				} else {
					res.Failed = true
				}
			}
		}
		if pinger != nil {
			pinger.Stop()
		}
		if sampler != nil {
			sampler.Stop()
		}
		res.ExecTime = p.Now() - start
	})
	cl.Eng.MustRun()

	if sampler != nil {
		res.Telemetry = sampler.Series()
	}
	res.Final = cl.Telemetry().Snapshot(cl.Eng.Now())

	for _, qp := range qps {
		res.Timeouts += qp.Stats.Timeouts
		res.Retransmits += qp.Stats.Retransmits
		res.ClientFaults += qp.Stats.ClientFaultRounds
	}
	res.RNRNaksSent = server.RNRNakSent
	res.NakSeqSent = server.NakSeqSent
	res.DammedDrops = server.DammedDrops
	res.SpuriousTotal = client.ODP.SpuriousTotal + server.ODP.SpuriousTotal
	res.PacketsOnWire = cl.Fab.Sent
	res.Cap = cap_
	return res
}
