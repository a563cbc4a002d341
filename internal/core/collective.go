package core

import (
	"fmt"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// This file is the multi-tier follow-up to the storm workload: the
// traffic patterns that make a Clos fabric interesting — incast (N
// senders converge on one sink) and all-to-all shuffle — cannot be
// expressed on two hosts, and their congestion signature (spine-tier
// uplink contention, PFC pause fan-out across leaves) cannot exist on a
// chain at all. The collective workload runs them on an N-node cluster
// over the declared topology and reports per-tier switch counters next
// to the usual retransmission picture, so "where does the fabric hurt"
// becomes a readable row instead of a single aggregate.

func init() { scenario.RegisterWorkload(collectiveWorkload{}) }

type collectiveWorkload struct{}

func (collectiveWorkload) Kind() string { return "collective" }

func (collectiveWorkload) Validate(sc *scenario.Scenario) error {
	switch sc.Pattern {
	case "incast", "shuffle":
	case "":
		return fmt.Errorf("scenario %q: collective needs a pattern (incast or shuffle)", sc.Name)
	default:
		return fmt.Errorf("scenario %q: unknown collective pattern %q (want incast or shuffle)", sc.Name, sc.Pattern)
	}
	if sc.Congestion == nil {
		return fmt.Errorf("scenario %q: collective studies in-network contention, so it needs a congestion block", sc.Name)
	}
	if sc.Nodes != 0 && sc.Nodes < 3 {
		return fmt.Errorf("scenario %q: collective needs at least 3 nodes (have %d)", sc.Name, sc.Nodes)
	}
	return nil
}

// collectiveResult is one pattern run's measurements.
type collectiveResult struct {
	exec    sim.Time
	failed  bool
	retrans uint64
	timeout uint64
	rnrNaks uint64
	final   telemetry.Snapshot
	tiers   []congestion.TierStat
}

// runCollective executes one collective exchange: senders push WRITEs
// (data flows toward the receivers, so the pattern's own payload is what
// contends in the core and what faults the receivers' managed pages).
// Everything runs on one engine with processes spawned in node order, so
// the run is a pure function of (scenario, seed) — the determinism
// contract the sweep layer and the goldens rely on.
func runCollective(sc *scenario.Scenario, sys cluster.System, nodes, ops, size int, seed int64) collectiveResult {
	cl := sys.BuildOn(nil, seed, nodes)
	mode := ODPModeOf(sc.Mode, ServerODP)
	qpsPer := sc.QPs
	if qpsPer <= 0 {
		qpsPer = 1
	}
	params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sc.RNRDelay()}
	if sc.CACK > 0 {
		params.CACK = sc.CACK
	}
	if sc.Retry > 0 {
		params.RetryCount = sc.Retry
	}

	// senders[i] lists the peers node i WRITEs to: everyone targets node
	// 0 for incast, everyone targets everyone else for shuffle.
	peers := make([][]int, nodes)
	for i := 1; i < nodes; i++ {
		peers[i] = append(peers[i], 0)
	}
	if sc.Pattern == "shuffle" {
		peers[0] = nil
		for i := 0; i < nodes; i++ {
			peers[i] = peers[i][:0]
			for j := 0; j < nodes; j++ {
				if j != i {
					peers[i] = append(peers[i], j)
				}
			}
		}
	}

	// Receive regions: each receiver owns one buffer with a disjoint
	// size*ops slice per inbound sender; the region is a managed
	// registration on the ODP sides, which is where the RNR NAK storms
	// come from once WRITE bursts hit cold pages.
	inbound := make([]int, nodes) // senders per receiver, assigned so far
	for i := range peers {
		for _, j := range peers[i] {
			inbound[j]++
		}
	}
	rbuf := make([]hostmem.Addr, nodes)
	for j := 0; j < nodes; j++ {
		if inbound[j] == 0 {
			continue
		}
		buflen := size * ops * inbound[j]
		rbuf[j] = cl.Nodes[j].AS.Alloc(buflen)
		cl.Nodes[j].RegisterMR(rbuf[j], buflen, mode.Server())
	}
	lbuf := make([]hostmem.Addr, nodes)
	for i := 0; i < nodes; i++ {
		if len(peers[i]) == 0 {
			continue
		}
		buflen := size * ops * len(peers[i])
		lbuf[i] = cl.Nodes[i].AS.Alloc(buflen)
		cl.Nodes[i].RegisterMR(lbuf[i], buflen, mode.Client())
	}

	// One send CQ per node; qpsPer connected QPs per directed pair, used
	// round-robin like the microbench. The receiver's slot index fixes
	// each sender's disjoint remote region.
	cqs := make([]*rnic.CQ, nodes)
	for i := range cqs {
		cqs[i] = rnic.NewCQ(cl.Eng)
	}
	type flowQP struct {
		qps  []*rnic.QP
		roff hostmem.Addr // receiver-region base for this sender
	}
	flows := make([][]flowQP, nodes) // [sender][peer index]
	slot := make([]int, nodes)       // next inbound slot per receiver
	for i := 0; i < nodes; i++ {
		flows[i] = make([]flowQP, len(peers[i]))
		for pi, j := range peers[i] {
			f := &flows[i][pi]
			f.roff = rbuf[j] + hostmem.Addr(size*ops*slot[j])
			slot[j]++
			f.qps = make([]*rnic.QP, qpsPer)
			for q := 0; q < qpsPer; q++ {
				qc := cl.Nodes[i].CreateQP(cqs[i], cqs[i])
				qs := cl.Nodes[j].CreateQP(cqs[j], cqs[j])
				rnic.ConnectPair(qc, qs, params, params)
				f.qps[q] = qc
			}
		}
	}

	post := sim.Time(float64(300*sim.Nanosecond) * sys.CPUFactor)
	res := collectiveResult{}
	for i := 0; i < nodes; i++ {
		if len(peers[i]) == 0 {
			continue
		}
		i := i
		cl.Eng.Go(fmt.Sprintf("collective-%d", i), func(p *sim.Proc) {
			// Destination-major inner loop: op k goes to every peer
			// before op k+1, so a shuffle's waves converge the way an
			// all-to-all exchange does.
			for k := 0; k < ops; k++ {
				for pi := range flows[i] {
					f := &flows[i][pi]
					off := hostmem.Addr(size * (ops*pi + k))
					f.qps[k%qpsPer].PostSend(rnic.SendWR{
						ID: uint64(k), Op: rnic.OpWrite,
						LocalAddr:  lbuf[i] + off,
						RemoteAddr: f.roff + hostmem.Addr(size*k),
						Len:        size,
					})
					p.Sleep(post)
				}
				if iv := sc.Interval(); iv > 0 {
					p.Sleep(iv)
				}
			}
			want := ops * len(peers[i])
			var wc [1]rnic.CQE
			for done := 0; done < want; {
				cqs[i].WaitN(p, wc[:])
				done++
				if wc[0].Status != rnic.WCSuccess {
					res.failed = true
				}
			}
			if now := p.Now(); now > res.exec {
				res.exec = now
			}
		})
	}
	cl.Eng.MustRun()

	for i := range flows {
		for pi := range flows[i] {
			for _, qp := range flows[i][pi].qps {
				res.retrans += qp.Stats.Retransmits
				res.timeout += qp.Stats.Timeouts
			}
		}
	}
	for _, n := range cl.Nodes {
		res.rnrNaks += n.RNRNakSent
	}
	res.final = cl.Telemetry().Snapshot(cl.Eng.Now())
	res.tiers = cl.Fab.Network().TierStats()
	return res
}

func (collectiveWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return err
	}
	nodes := sc.Nodes
	if nodes == 0 {
		nodes = 9
		if sc.Pattern == "shuffle" {
			nodes = 6
		}
	}
	ops := sc.Ops
	if ops == 0 {
		ops = 32
	}
	size := sc.Size
	if size == 0 {
		size = 1024
	}
	r := runCollective(sc, sys, nodes, ops, size, sc.SeedOrDefault())

	topoLabel := "chain"
	if ts := sc.Congestion.Topology; ts != nil {
		topoLabel = ts.Label()
	}
	shape := fmt.Sprintf("%d nodes all-to-all", nodes)
	if sc.Pattern == "incast" {
		shape = fmt.Sprintf("%d->1", nodes-1)
	}
	fmt.Fprintln(out.W, sc.ExpandedTitle())
	fmt.Fprintf(out.W, "\n%s %s on %s (%d WRITEs x %d B per flow, %s):\n",
		sc.Pattern, shape, topoLabel, ops, size, ODPModeOf(sc.Mode, ServerODP))
	status := ""
	if r.failed {
		status = "  [RETRY_EXC_ERR]"
	}
	fmt.Fprintf(out.W, "exec %v  retrans %d  timeouts %d  rnr_naks %d  drops %.0f  pause %.0f us  ecn %.0f  cnps %.0f%s\n",
		time.Duration(r.exec), r.retrans, r.timeout, r.rnrNaks,
		r.final.Total(telemetry.SimSwitchDrops),
		r.final.Total(telemetry.TxPauseDuration),
		r.final.Total(telemetry.SimSwitchEcnMarked),
		r.final.Total(telemetry.NpCnpSent), status)
	fmt.Fprintf(out.W, "%-8s %8s %12s %12s %10s %7s\n",
		"tier", "switches", "peak_buf[B]", "pause_frames", "ecn_marked", "drops")
	for _, t := range r.tiers {
		fmt.Fprintf(out.W, "%-8s %8d %12d %12d %10d %7d\n",
			t.Tier, t.Switches, t.PeakBytes, t.PauseFrames, t.EcnMarked, t.Drops)
	}
	return nil
}
