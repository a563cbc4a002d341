package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/hostmem"
	"odpsim/internal/parallel"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	"odpsim/internal/shard"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
	"odpsim/internal/telemetry"
)

// The kv-serve workload is the fabric-scale companion to the collective
// patterns: a key-value serving tier spread across the pods of a 3-tier
// fat-tree, where every pod runs one server host and a rack of open-loop
// GET clients hammering it over RDMA READ. The pattern is pod-local by
// construction — a client only ever talks to its own pod's server — so
// shard.Decompose splits it into one causal domain per pod, each pod
// simulating its own PodTopology cell in full switch-level detail on an
// engine of its own. The core tier the pods would share carries only the
// periodic replication digests every pod streams to pod 0, modelled as
// one serializing core link per source pod at the core's oversubscribed
// rate. Nothing flows back, and nothing on pod 0 reads a digest but the
// report, so each link tallies what it sends and the pods share nothing:
// all of them run dry in one parallel phase on the -shards workers.
//
// A pod exists only while it runs: it is built on its worker's engine,
// and once that engine has run dry the pod's counters are copied onto
// its kvPod and the cluster is dropped, so the worker's next pod
// rebuilds on the same engine and recycles its arenas and pools. The run
// holds one pod cell per worker, not one per pod.
//
// What the scenario measures is the paper's pitfall at serving scale:
// with the server region under Explicit ODP, first-touch GETs RNR-storm
// and the millisecond NAK delays land straight in the tail. The report
// therefore leads with latency percentiles — P50/P99/P99.9 from a
// streaming quantile sketch (internal/stats), merged across pods in pod
// order so the output is byte-identical at every `-shards` value.

func init() { scenario.RegisterWorkload(kvServeWorkload{}) }

type kvServeWorkload struct{}

func (kvServeWorkload) Kind() string { return "kv-serve" }

func (kvServeWorkload) Validate(sc *scenario.Scenario) error {
	if sc.Congestion == nil || sc.Congestion.Topology == nil {
		return fmt.Errorf("scenario %q: kv-serve needs a congestion block with a clos topology (pods come from its radix)", sc.Name)
	}
	ts := sc.Congestion.Topology
	if ts.Kind != "clos" || ts.Tiers != 3 {
		return fmt.Errorf("scenario %q: kv-serve needs topology kind \"clos\" with tiers 3, got %s", sc.Name, ts.Label())
	}
	pods := ts.Radix
	if pods == 0 {
		pods = 4
	}
	if sc.Nodes != 0 {
		if sc.Nodes%pods != 0 {
			return fmt.Errorf("scenario %q: kv-serve nodes (%d) must divide evenly into %d pods", sc.Name, sc.Nodes, pods)
		}
		if sc.Nodes/pods < 2 {
			return fmt.Errorf("scenario %q: kv-serve needs at least 2 hosts per pod (have %d/%d)", sc.Name, sc.Nodes, pods)
		}
	}
	if sc.Pattern != "" {
		return fmt.Errorf("scenario %q: kv-serve does not take a pattern", sc.Name)
	}
	return nil
}

// kvPod is one pod's state, kept so post-run aggregation can walk the
// pods in index order (the determinism contract).
type kvPod struct {
	// cl and qps (one per client, client order) live from the pod's build
	// until its summary: they belong to the worker's engine.
	cl        *cluster.Cluster
	qps       []*rnic.QP
	sketch    *stats.QuantileSketch
	done      sim.Time // last completion observed in this pod
	completed int      // pod-wide completions, for the digest stride
	link      *kvLink  // digest link to pod 0 (nil for pod 0)

	// What the report reads, copied by summarize.
	retrans, timeouts, rnrNaks uint64
	pause, ecn, drops          float64
	tiers                      []congestion.TierStat
	events                     uint64 // events the pod's engine fired
}

// summarize copies what the report reads off the pod's cluster, then
// drops the cluster: the worker's next pod recycles its objects.
func (kp *kvPod) summarize() {
	for _, qp := range kp.qps {
		kp.retrans += qp.Stats.Retransmits
		kp.timeouts += qp.Stats.Timeouts
	}
	for _, n := range kp.cl.Nodes {
		kp.rnrNaks += n.RNRNakSent
	}
	hub := kp.cl.Telemetry()
	kp.pause = hub.Total(telemetry.TxPauseDuration)
	kp.ecn = hub.Total(telemetry.SimSwitchEcnMarked)
	kp.drops = hub.Total(telemetry.SimSwitchDrops)
	kp.tiers = kp.cl.Fab.Network().TierStats()
	kp.events = kp.cl.Eng.EventsFired()
	kp.cl, kp.qps = nil, nil
}

// Every kvDigestEvery-th completed GET in a pod ships a kvDigestBytes
// replication digest to pod 0 over the pod's core link, whose
// propagation delay is kvCoreProp.
const (
	kvDigestEvery = 64
	kvDigestBytes = 64
	kvCoreProp    = 2 * sim.Microsecond
)

// kvLink is a source pod's core link to pod 0: a serializing egress, one
// digest on the wire at a time, then kvCoreProp of propagation. It
// tallies the digests it sends (how many, when the last lands and that
// one's payload, the source pod's completions so far), which is all the
// report reads of them.
type kvLink struct {
	ser  sim.Time // one digest's serialization time at the core rate
	free sim.Time // the egress serialization cursor
	n    uint64   // digests sent
	last sim.Time // when the last digest lands on pod 0
	arg  uint64   // the last digest's payload
}

// newKVLink returns a core link at gbps.
func newKVLink(gbps float64) *kvLink { return &kvLink{ser: sim.Time(kvDigestBytes * (8 / gbps))} }

// send tallies a digest that leaves at now: it lands at
// max(now, free) + ser + kvCoreProp.
func (l *kvLink) send(now sim.Time, arg uint64) {
	l.free = max(now, l.free) + l.ser
	l.n++
	l.last, l.arg = l.free+kvCoreProp, arg
}

// kvSketch returns the latency sketch shape shared by every pod —
// identical shapes are what makes the final Merge legal. Units are
// microseconds: 0.1 µs floor (well under one propagation delay) to 10 s,
// 32 buckets per decade ≈ 7% relative error.
func kvSketch() *stats.QuantileSketch { return stats.NewQuantileSketch(0.1, 1e7, 32) }

// kvServe is one kv-serve run: the shape it resolves from the scenario
// and its pods.
type kvServe struct {
	pods, hostsPer, ops, size int
	interval, post            sim.Time
	mode                      ODPMode
	podSys                    cluster.System
	params                    rnic.ConnParams
	seed                      int64
	coreGbps                  float64 // a core link's rate

	pod []*kvPod
}

// newKVServe resolves sc, which Validate accepted, into a kv-serve run.
func newKVServe(sc *scenario.Scenario) (*kvServe, error) {
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return nil, err
	}
	// The pod count is the declared fat-tree's radix and the core's rate
	// its oversubscription, read from the spec (Validate checked it is a
	// 3-tier clos) with the defaults TopologySpec.build applies.
	ts := sc.Congestion.Topology
	kv := &kvServe{
		pods:     cmp.Or(ts.Radix, 4),
		ops:      cmp.Or(sc.Ops, 16),
		size:     cmp.Or(sc.Size, 1024),
		interval: cmp.Or(sc.Interval(), 2*sim.Microsecond),
		mode:     ODPModeOf(sc.Mode, ServerODP),
		seed:     sc.SeedOrDefault(),
	}
	oversub := cmp.Or(ts.Oversubscription, sys.Congestion.UplinkFactor)
	nodes := cmp.Or(sc.Nodes, kv.pods*16)
	kv.hostsPer = nodes / kv.pods

	// Every pod simulates its own fat-tree slice: the pod cell of the
	// declared 3-tier topology, at the declared oversubscription.
	podCfg := *sys.Congestion
	podCfg.Topology = congestion.PodTopology(kv.pods, oversub)
	kv.podSys = sys
	kv.podSys.Congestion = &podCfg

	// The partition is derived from the traffic, never from sc.Shards:
	// client→server flows are pod-local, so Decompose yields exactly one
	// domain per pod. If a future variant adds cross-pod flows this check
	// fails loudly instead of silently breaking determinism.
	pairs := make([][2]int, 0, nodes-kv.pods)
	for p := 0; p < kv.pods; p++ {
		base := p * kv.hostsPer
		for c := 1; c < kv.hostsPer; c++ {
			pairs = append(pairs, [2]int{base + c, base})
		}
	}
	if part := shard.Decompose(nodes, pairs); part.Count != kv.pods {
		panic(fmt.Sprintf("kv-serve: %d hosts decomposed into %d causal domains, want %d pods", nodes, part.Count, kv.pods))
	}

	kv.params = rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sc.RNRDelay()}
	if sc.CACK > 0 {
		kv.params.CACK = sc.CACK
	}
	if sc.Retry > 0 {
		kv.params.RetryCount = sc.Retry
	}
	kv.post = sim.Time(float64(300*sim.Nanosecond) * sys.CPUFactor)
	kv.coreGbps = sys.Device.LinkGbps / podCfg.Topology.Oversub
	return kv, nil
}

// run simulates every pod on a pool of workers (below 1: GOMAXPROCS),
// one recycled engine each.
func (kv *kvServe) run(workers int) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	engs := make(parallel.Engines, workers)
	kv.pod = make([]*kvPod, kv.pods)
	parallel.RunWorkers(workers, kv.pods, func(w, p int) { kv.runPod(engs.Get(w), p) })
}

// runPod builds pod p on eng, runs it dry and summarizes it.
func (kv *kvServe) runPod(eng *sim.Engine, p int) {
	// Per-pod seeds stride by a large prime so the pods' RNG streams
	// are decorrelated while staying a pure function of the scenario
	// seed (pod 0 keeps the base seed for continuity with the
	// single-engine workloads).
	podSeed := kv.seed + int64(p)*1000003
	kp := &kvPod{sketch: kvSketch()}
	kv.pod[p] = kp
	kp.cl = kv.podSys.BuildOn(eng, podSeed, kv.hostsPer)

	// The server's value region: one size*ops slice per client, every op
	// touching a fresh offset so cold ODP pages keep faulting the way a
	// growing working set does.
	clients := kv.hostsPer - 1
	server := kp.cl.Nodes[0]
	slotLen := kv.size * kv.ops
	region := server.AS.Alloc(slotLen * clients)
	server.RegisterMR(region, slotLen*clients, kv.mode.Server())

	kp.qps = make([]*rnic.QP, 0, clients)
	for c := 1; c < kv.hostsPer; c++ {
		node := kp.cl.Nodes[c]
		lbuf := node.AS.Alloc(slotLen)
		node.RegisterMR(lbuf, slotLen, kv.mode.Client())
		cq := rnic.NewCQ(eng)
		qc := node.CreateQP(cq, cq)
		qs := server.CreateQP(rnic.NewCQ(eng), rnic.NewCQ(eng))
		rnic.ConnectPair(qc, qs, kv.params, kv.params)
		kp.qps = append(kp.qps, qc)

		// Open loop: the poster fires a GET every interval regardless of
		// completions — precisely the regime where fault-delayed
		// responses pile latency onto the tail instead of throttling the
		// offered load.
		kc := newKVClient(eng, kv.ops)
		kc.pod, kc.qp, kc.cq = kp, qc, cq
		kc.lbuf, kc.rbuf = lbuf, region+hostmem.Addr(slotLen*(c-1))
		kc.size, kc.post, kc.gap = kv.size, kv.post, kv.interval-kv.post
		eng.ScheduleAfter(0, kc.stepFn)
		eng.ScheduleAfter(0, kc.reapFn)
	}

	if p > 0 {
		kp.link = newKVLink(kv.coreGbps)
	}
	eng.MustRun()
	kp.summarize()
}

// digests sums the source pods' link tallies in pod order: the digests
// sent to pod 0, the remote completions they cover (each pod's last
// payload) and when the last one lands.
func (kv *kvServe) digests() (n, ops uint64, last sim.Time) {
	for _, kp := range kv.pod[1:] {
		n += kp.link.n
		ops += kp.link.arg
		last = max(last, kp.link.last)
	}
	return n, ops, last
}

func (kvServeWorkload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	kv, err := newKVServe(sc)
	if err != nil {
		return err
	}
	kv.run(sc.Shards)

	// Aggregation walks pods in index order everywhere below — with the
	// per-pod state fully settled, order only matters for byte-identical
	// output, and index order is the canonical one.
	merged := kvSketch()
	var exec sim.Time
	var retrans, timeouts, rnrNaks uint64
	var pause, ecn, drops float64
	tiers := map[string]*congestion.TierStat{}
	var tierOrder []string
	for _, kp := range kv.pod {
		merged.Merge(kp.sketch)
		if kp.done > exec {
			exec = kp.done
		}
		retrans += kp.retrans
		timeouts += kp.timeouts
		rnrNaks += kp.rnrNaks
		pause += kp.pause
		ecn += kp.ecn
		drops += kp.drops
		for _, t := range kp.tiers {
			agg, ok := tiers[t.Tier]
			if !ok {
				agg = &congestion.TierStat{Tier: t.Tier}
				tiers[t.Tier] = agg
				tierOrder = append(tierOrder, t.Tier)
			}
			agg.Switches += t.Switches
			if t.PeakBytes > agg.PeakBytes {
				agg.PeakBytes = t.PeakBytes
			}
			agg.PauseFrames += t.PauseFrames
			agg.EcnMarked += t.EcnMarked
			agg.Drops += t.Drops
		}
	}

	fmt.Fprintln(out.W, sc.ExpandedTitle())
	fmt.Fprintf(out.W, "\nkv-serve %d pods x %d hosts on %s (%d clients, %d GETs x %d B each, open-loop @ %v, %s):\n",
		kv.pods, kv.hostsPer, sc.Congestion.Topology.Label(), kv.pods*(kv.hostsPer-1), kv.ops, kv.size,
		time.Duration(kv.interval), kv.mode)
	fmt.Fprintf(out.W, "exec %v  retrans %d  timeouts %d  rnr_naks %d  drops %.0f  pause %.0f us  ecn %.0f\n",
		time.Duration(exec), retrans, timeouts, rnrNaks, drops, pause, ecn)
	fmt.Fprintf(out.W, "latency[us]  p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f  (n=%d)\n",
		merged.Quantile(0.50), merged.Quantile(0.90), merged.Quantile(0.99),
		merged.Quantile(0.999), merged.Max(), merged.N())
	digests, digestOps, lastDigest := kv.digests()
	fmt.Fprintf(out.W, "digests %d at pod0 covering %d remote ops, last at %v\n",
		digests, digestOps, time.Duration(lastDigest))
	fmt.Fprintf(out.W, "%-8s %8s %12s %12s %10s %7s\n",
		"tier", "switches", "peak_buf[B]", "pause_frames", "ecn_marked", "drops")
	for _, name := range tierOrder {
		t := tiers[name]
		fmt.Fprintf(out.W, "%-8s %8d %12d %12d %10d %7d\n",
			t.Tier, t.Switches, t.PeakBytes, t.PauseFrames, t.EcnMarked, t.Drops)
	}
	return nil
}

// kvClient is one open-loop GET client as engine callbacks: a poster
// that posts a READ, sleeps post and then gap (when positive), and a
// reaper beside it that polls the CQ, parking on the CQ's Cond with
// Notify while it is empty. Each starts from an event of its own and
// schedules one event per sleep and one wake per CQ Broadcast while the
// reaper waits: the events a process running the same loop schedules,
// without its goroutine hand-offs.
type kvClient struct {
	pod        *kvPod
	eng        *sim.Engine
	qp         *rnic.QP
	cq         *rnic.CQ
	lbuf, rbuf hostmem.Addr // GET k reads size bytes at offset size*k
	size       int
	post, gap  sim.Time
	postAt     []sim.Time // post instant per GET, for the latency sample

	posted, reaped int
	slept          bool // the next step ends a post overhead

	stepFn, reapFn func() // bound method values of step and reap
	arenaNext      *kvClient
}

// kvClientsKey is the engine Aux key of the kvClient arena.
const kvClientsKey = "core.kvClients"

// newKVClient takes a zeroed client from eng's arena, with room for ops
// post instants. A recycled record keeps its bound callbacks and its
// postAt storage, so every pod after a lane's first builds its clients
// without allocating. postAt's old contents are never read: a GET's
// slot is written when it is posted.
func newKVClient(eng *sim.Engine, ops int) *kvClient {
	a := sim.ArenaOn(eng, kvClientsKey, func(c *kvClient) **kvClient { return &c.arenaNext })
	c := a.Take(eng)
	if c == nil {
		c = new(kvClient)
		c.stepFn, c.reapFn = c.step, c.reap
		a.Add(c)
	} else {
		*c = kvClient{postAt: c.postAt, stepFn: c.stepFn, reapFn: c.reapFn, arenaNext: c.arenaNext}
	}
	c.eng = eng
	c.postAt = slices.Grow(c.postAt[:0], ops)[:ops]
	return c
}

// step is the poster's event: the start event, the end of a post
// overhead or the end of a gap.
func (c *kvClient) step() {
	if c.slept {
		c.slept = false
		if c.gap > 0 {
			c.eng.ScheduleAfter(c.gap, c.stepFn)
			return
		}
	}
	k := c.posted
	if k == len(c.postAt) {
		return
	}
	off := hostmem.Addr(c.size * k)
	c.postAt[k] = c.eng.Now()
	c.qp.PostSend(rnic.SendWR{
		ID: uint64(k), Op: rnic.OpRead,
		LocalAddr:  c.lbuf + off,
		RemoteAddr: c.rbuf + off,
		Len:        c.size,
	})
	c.posted++
	c.slept = true
	c.eng.ScheduleAfter(c.post, c.stepFn)
}

// reap polls every GET's completion into the pod's latency sketch and
// ships a replication digest to pod 0 on every kvDigestEvery-th
// completion in the pod.
func (c *kvClient) reap() {
	var wc [1]rnic.CQE
	kp := c.pod
	for c.reaped < len(c.postAt) {
		if c.cq.Poll(wc[:]) == 0 {
			c.cq.Cond().Notify(c.reapFn)
			return
		}
		c.reaped++
		now := c.eng.Now()
		lat := now - c.postAt[wc[0].WRID]
		kp.sketch.Add(float64(lat) / float64(sim.Microsecond))
		if now > kp.done {
			kp.done = now
		}
		kp.completed++
		if kp.link != nil && kp.completed%kvDigestEvery == 0 {
			kp.link.send(now, uint64(kp.completed))
		}
	}
}
