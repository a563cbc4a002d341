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

// Client reports whether the client registers its buffers on demand.
func (m ODPMode) Client() bool { return m == ClientODP || m == BothODP }

// Server reports whether the server registers its buffers on demand.
func (m ODPMode) Server() bool { return m == ServerODP || m == BothODP }

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
	// keeps one per parallel worker (see parallel.Engines). The result's
	// CompletionTime and Final live in the engine's recycled storage and
	// are valid until its next trial; with Eng nil the result owns them.
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

// BenchResult reports one micro-benchmark run. On a reused engine
// (BenchConfig.Eng) its CompletionTime and Final's samples are the
// engine's storage, valid until the engine's next trial (DESIGN.md §8):
// a caller that keeps results across trials reads them first. A run on
// a fresh engine owns them.
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
	// The "ODP side" of each mode is an on-demand registration: it
	// follows the node's memory mode (odp normally, npr/pin when the
	// System says so), which is how `memory:` sweeps reroute every
	// benchmark.
	client.RegisterMR(lbuf, buflen, cfg.Mode.Client())
	server.RegisterMR(rbuf, buflen, cfg.Mode.Server())
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
	// Every completion piles up in the client CQ until the last post, so
	// size it once (a recycled CQ keeps the room).
	cqC.Reserve(cfg.NumOps)
	c := newBenchClient(cl.Eng)
	params := rnic.ConnParams{CACK: cfg.CACK, RetryCount: cfg.RetryCount, MinRNRDelay: cfg.MinRNRDelay}
	for i := 0; i < cfg.NumQPs; i++ {
		qc := client.CreateQP(cqC, cqC)
		qs := server.CreateQP(cqS, cqS)
		rnic.ConnectPair(qc, qs, params, params)
		// Op j posts on QP j mod NumQPs, so this QP's send queue holds at
		// most its share of the ops.
		qc.ReserveSend((cfg.NumOps - i + cfg.NumQPs - 1) / cfg.NumQPs)
		c.qps = append(c.qps, qc)
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

	// The per-post CPU cost, scaled by the host's CPU speed.
	post := sim.Time(float64(300*sim.Nanosecond) * cfg.System.CPUFactor)

	if cap(c.times) < cfg.NumOps {
		c.times = make([]sim.Time, cfg.NumOps)
	}
	c.times = c.times[:cfg.NumOps]
	for i := range c.times {
		c.times[i] = -1
	}
	res := &BenchResult{CompletionTime: c.times}

	var sampler *telemetry.Sampler
	if cfg.SampleEvery > 0 {
		sampler = telemetry.NewSampler(cl.Eng, cl.Telemetry(), cfg.SampleEvery)
	}
	c.cq, c.lbuf, c.rbuf = cqC, lbuf, rbuf
	c.size, c.ops, c.post, c.interval, c.opAt = cfg.Size, cfg.NumOps, post, cfg.Interval, cfg.OpOverride
	c.res, c.sampler = res, sampler
	c.dummyPing, c.pingEvery = cfg.DummyPing, cfg.DummyPingInterval
	cl.Eng.ScheduleAfter(0, c.stepFn)
	cl.Eng.MustRun()

	if sampler != nil {
		res.Telemetry = sampler.Series()
	}
	res.Final = cl.Telemetry().SnapshotInto(cl.Eng.Now(), c.samples)
	c.samples = res.Final.Samples

	for _, qp := range c.qps {
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

// benchClient is the Figure-3 client as engine callbacks: it posts ops
// operations round-robin over its QPs, sleeping post and then interval
// (when positive) after each, and then polls the CQ until every
// operation completed, parking on the CQ's Cond with Notify while it is
// empty. It schedules one start event, one event per sleep and one wake
// per CQ Broadcast while it waits: the events a process running the
// same loop schedules, without its two goroutine hand-offs per event.
type benchClient struct {
	eng            *sim.Engine
	qps            []*rnic.QP // op i posts on qps[i%len(qps)]
	cq             *rnic.CQ
	lbuf, rbuf     hostmem.Addr // op i moves size bytes at offset size*i
	size, ops      int
	post, interval sim.Time
	opAt           func(i int) rnic.SendOp // nil: every op is a READ

	res       *BenchResult
	sampler   *telemetry.Sampler
	dummyPing bool
	pingEvery sim.Time
	pinger    *DummyPinger

	// times and samples are the storage of res.CompletionTime and
	// res.Final's samples; a recycled record keeps them for the next
	// trial on its engine.
	times   []sim.Time
	samples []telemetry.Sample

	start        sim.Time
	posted, done int
	slept        bool // the next step ends a post overhead

	// stepFn and reapFn are the method values of step and reap, bound
	// once when the record is first allocated.
	stepFn, reapFn func()
	arenaNext      *benchClient
}

// benchClientsKey is the engine Aux key of the benchClient arena.
const benchClientsKey = "core.benchClients"

// newBenchClient takes a zeroed client from eng's arena. A recycled
// record keeps its bound callbacks and the storage of its QP list, its
// completion times and its final snapshot, so a trial on a reused engine
// allocates nothing for its client or for those results.
func newBenchClient(eng *sim.Engine) *benchClient {
	a := sim.ArenaOn(eng, benchClientsKey, func(c *benchClient) **benchClient { return &c.arenaNext })
	c := a.Take(eng)
	if c == nil {
		c = new(benchClient)
		c.stepFn, c.reapFn = c.step, c.reap
		a.Add(c)
	} else {
		*c = benchClient{qps: c.qps[:0], times: c.times, samples: c.samples,
			stepFn: c.stepFn, reapFn: c.reapFn, arenaNext: c.arenaNext}
	}
	c.eng = eng
	return c
}

// step is the poster's event: the start event, the end of a post
// overhead or the end of an interval.
func (c *benchClient) step() {
	switch {
	case c.slept:
		c.slept = false
		if c.interval > 0 {
			c.eng.ScheduleAfter(c.interval, c.stepFn)
			return
		}
	case c.posted == 0:
		c.begin()
	}
	if c.posted == c.ops {
		c.reap() // wait(): poll the CQ until every operation completed
		return
	}
	i := c.posted
	op := rnic.OpRead
	if c.opAt != nil {
		op = c.opAt(i)
	}
	off := hostmem.Addr(c.size * i)
	c.qps[i%len(c.qps)].PostSend(rnic.SendWR{
		ID: uint64(i), Op: op,
		LocalAddr: c.lbuf + off, RemoteAddr: c.rbuf + off, Len: c.size,
	})
	c.posted++
	c.slept = true
	c.eng.ScheduleAfter(c.post, c.stepFn)
}

// begin starts the sampler and the dummy pinger in the start event.
func (c *benchClient) begin() {
	c.start = c.eng.Now()
	if c.sampler != nil {
		c.sampler.Start()
	}
	if c.dummyPing {
		c.pinger = StartDummyPinger(c.eng, c.qps[0], c.lbuf, c.rbuf, c.pingEvery)
	}
}

// reap polls the CQ until every operation completed (or the QP died),
// parking on the CQ's Cond whenever it is empty. Dummy pings and
// repeated completions are polled and ignored.
func (c *benchClient) reap() {
	var wc [1]rnic.CQE
	for c.done < c.ops {
		if c.cq.Poll(wc[:]) == 0 {
			c.cq.Cond().Notify(c.reapFn)
			return
		}
		if e := &wc[0]; int(e.WRID) < c.ops && c.res.CompletionTime[e.WRID] < 0 {
			c.done++
			if e.Status == rnic.WCSuccess {
				c.res.CompletionTime[e.WRID] = e.At
			} else {
				c.res.Failed = true
			}
		}
	}
	if c.pinger != nil {
		c.pinger.Stop()
	}
	if c.sampler != nil {
		c.sampler.Stop()
	}
	c.res.ExecTime = c.eng.Now() - c.start
	// The arena keeps the record until the engine's next Reset; drop
	// what the caller owns.
	c.res, c.sampler, c.pinger, c.opAt = nil, nil, nil, nil
}
