package congestion

import (
	"strconv"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// Hooks is how the network talks back to the fabric that owns it. The
// congestion package deliberately does not import internal/fabric: the
// fabric plugs itself in through these callbacks, keeping the dependency
// arrow pointing one way (fabric → congestion).
type Hooks struct {
	// Deliver is called at the instant the packet finishes clocking out
	// of the last switch toward the destination host. The fabric adds
	// its jittered propagation delay, enforces per-pair FIFO and
	// schedules the final handler call (which also returns the packet
	// to the pool).
	Deliver func(dst uint16, pkt *packet.Packet, ws int)
	// Drop is called when a switch tail-drops the packet on buffer
	// overflow. The fabric counts it, emits the drop tap and reclaims
	// the packet.
	Drop func(src uint16, pkt *packet.Packet, reason string)
	// Pause is called for every PFC pause/resume frame so the fabric
	// can surface it to taps (captures show pause frames the way a port
	// mirror would).
	Pause func(from, to string, xoff bool)
}

// entry is one packet queued or in flight inside the switched network.
// Entries are recycled through the engine-attached scratch free list
// (shared by every network built on a Reset-reused engine), so steady
// traffic and repeated trials allocate none once the list is warm.
type entry struct {
	pkt *packet.Packet
	ws  int
	src uint16
	dst uint16
	vl  int
	// buf/acct locate the entry's switch-buffer and PFC ingress
	// accounting while it is buffered in a switch.
	buf  *swtch
	acct *port
	// landAt and seq are the entry's arrival deadline and its reserved
	// engine tie-break while it rides a port's propagation delay line
	// (see port.wire). seq is claimed when the flight starts so same-
	// instant ties resolve exactly as if every flight were in the heap.
	landAt sim.Time
	seq    uint64
}

// entryRing is a reusable FIFO of queued entries: a power-of-two ring
// buffer that keeps its backing array across drain/refill cycles and
// across trials (the port that owns it is arena-recycled). It replaces
// the old append/reslice queue, which leaked the consumed front of the
// backing array and re-allocated it on every burst.
type entryRing struct {
	buf  []*entry
	head int
	n    int
}

// ringChunk is the length of a ring's first backing array, carved from
// the engine's chunk blocks at the ring's first push: most of a fabric's
// rings are never pushed, and most of the rest never hold more than 16
// entries, so a ring costs no allocation of its own until it outgrows
// the chunk (then it doubles like any ring).
const ringChunk = 16

// push appends e at the tail, growing the ring only when full; an empty
// ring takes its first chunk from s.
func (r *entryRing) push(e *entry, s *scratch) {
	if r.n == len(r.buf) {
		if r.buf == nil {
			r.buf = s.chunks.New()[:]
		} else {
			r.grow()
		}
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// pop removes and returns the head entry, nil-ing its slot so consumed
// entries are unreachable immediately (not when the array is next
// overwritten). The ring must be non-empty.
func (r *entryRing) pop() *entry {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the backing array (power of two, so index math stays a
// mask) and compacts the live entries to the front.
func (r *entryRing) grow() {
	buf := make([]*entry, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// peek returns the head entry without removing it. The ring must be
// non-empty.
func (r *entryRing) peek() *entry { return r.buf[r.head] }

// reset empties the ring, clearing any entries an abandoned run left
// behind, but keeps the backing array for the next trial.
func (r *entryRing) reset() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = nil
	}
	r.head, r.n = 0, 0
}

// Port roles, the key under which an arena-recycled port keeps its
// name: a port's name is rendered at its first pause frame, the only
// place it is read, and a port re-grabbed for the same link in the next
// trial keeps last trial's string instead of rendering it again.
const (
	roleUplink   = iota // host a → switch b
	roleCore            // switch a → switch b
	roleDownlink        // switch a → host b
)

// portRole identifies which link of the topology a port serves.
type portRole struct {
	kind int
	a, b int
}

// name renders the role in the fixed "host3-sw0" / "sw0-sw1" /
// "sw1-host2" vocabulary (the same strings the old fmt.Sprintf calls
// produced, without fmt's boxing).
func (r portRole) name() string {
	switch r.kind {
	case roleUplink:
		return "host" + strconv.Itoa(r.a) + "-sw" + strconv.Itoa(r.b)
	case roleCore:
		return "sw" + strconv.Itoa(r.a) + "-sw" + strconv.Itoa(r.b)
	default:
		return "sw" + strconv.Itoa(r.a) + "-host" + strconv.Itoa(r.b)
	}
}

// port is one egress queue clocking packets onto one link: a host's
// uplink into its edge switch, a switch-to-switch link, or a switch's
// downlink to a host. VL1 (CNPs) is strictly prioritized over VL0 and
// is never paused.
type port struct {
	n *Network
	// name caches role.name() once a pause frame needed it (label).
	name string
	role portRole
	gbps float64
	prop sim.Time

	q      [numVLs]entryRing
	qbytes [numVLs]int

	// pausedData suspends VL0 service (set by the downstream switch's
	// PFC state machine). pauseStart times the current pause for the
	// tx_pause_duration accounting. acctBytes is the downstream switch's
	// per-ingress-neighbour byte count for this link — the quantity the
	// XOFF/XON thresholds compare against.
	pausedData bool
	pauseStart sim.Time
	acctBytes  int

	busy bool
	cur  *entry
	// doneFn and landFn are txDone and land, bound at the port's first
	// transmission and first flight: a port that carries nothing binds
	// neither.
	doneFn func()

	// wire is the link's propagation delay line: entries that finished
	// clocking out and are in flight toward the far end. prop is constant
	// per link, so flights land strictly FIFO — only the head flight
	// holds a scheduled engine callback (land fires or re-arms the next
	// head), which keeps the event heap shallow no matter how
	// many packets a 2 µs wire holds at once.
	wire   entryRing
	landFn func()

	// dstSwitch is the far end for switch-bound links; nil means the
	// far end is a host and the entry leaves the network on arrival.
	dstSwitch *swtch

	arenaNext *port
}

// enqueue appends an entry and starts the transmitter if idle. ECN
// marking happens at switch-buffer admission (see swtch.admit); the
// queue itself is policy-free.
func (p *port) enqueue(e *entry) {
	p.q[e.vl].push(e, p.n.scratch)
	p.qbytes[e.vl] += e.ws
	p.pump()
}

// pop takes the next serviceable entry: control VL first, data VL only
// when not paused.
func (p *port) pop() *entry {
	for vl := numVLs - 1; vl >= 0; vl-- {
		if vl == VLData && p.pausedData {
			continue
		}
		if p.q[vl].n == 0 {
			continue
		}
		e := p.q[vl].pop()
		p.qbytes[vl] -= e.ws
		return e
	}
	return nil
}

// pump starts serializing the next queued entry if the wire is free.
func (p *port) pump() {
	if p.busy {
		return
	}
	e := p.pop()
	if e == nil {
		return
	}
	p.busy = true
	p.cur = e
	if p.doneFn == nil {
		p.doneFn = p.txDone
	}
	p.n.eng.ScheduleAfter(serTime(e.ws, p.gbps), p.doneFn)
}

// txDone fires when the current entry has fully clocked onto the link:
// the entry leaves the switch buffer it was draining (store-and-forward)
// and is admitted to the next switch's buffer before it flies — the
// commitment point is the packet boundary, which is what lets PFC keep
// the fabric lossless: once XOFF lands, nothing further is charged, so
// an admitted packet always fits. The wire then frees up for the next
// entry and the packet arrives after the link's propagation delay.
func (p *port) txDone() {
	e := p.cur
	p.cur = nil
	p.busy = false
	if e.buf != nil {
		e.buf.release(e)
	}
	if p.dstSwitch != nil && e.vl == VLData && !p.dstSwitch.admit(e, p) {
		p.pump()
		return
	}
	if p.prop > 0 {
		e.landAt = p.n.eng.Now() + p.prop
		e.seq = p.n.eng.ReserveSeq()
		if p.wire.n == 0 {
			if p.landFn == nil {
				p.landFn = p.land
			}
			p.n.eng.ScheduleSeq(e.landAt, e.seq, p.landFn)
		}
		p.wire.push(e, p.n.scratch)
	} else {
		p.arrived(e)
	}
	p.pump()
}

// land fires when the head flight on this port's wire reaches the far
// end, and keeps landing while the next flight is the engine's next
// event (sim.Engine.Claim); otherwise it arms that flight and returns.
// As in the fabric's delay lines, whether the wire is still armed is
// decided before the arrival runs, and every flight keeps the seq it
// reserved in txDone, so arrivals keep their tie-break priority over
// work a landing schedules.
func (p *port) land() {
	for {
		e := p.wire.pop()
		armed := p.wire.n > 0
		p.arrived(e)
		if !armed {
			return
		}
		next := p.wire.peek()
		if !p.n.eng.Claim(next.landAt, next.seq) {
			p.n.eng.ScheduleSeq(next.landAt, next.seq, p.landFn)
			return
		}
	}
}

// label returns the port's name, rendering it on first use.
func (p *port) label() string {
	if p.name == "" {
		p.name = p.role.name()
	}
	return p.name
}

// arrived lands the entry at this port's far end.
func (p *port) arrived(e *entry) {
	if p.dstSwitch != nil {
		p.dstSwitch.forward(e)
		return
	}
	// Final hop: hand the packet back to the fabric for delivery.
	n := p.n
	n.hooks.Deliver(e.dst, e.pkt, e.ws)
	n.putEntry(e)
}

// swtch is one switch: a shared packet buffer, per-egress VL queues and
// the PFC pause state machine for each of its ingress links.
type swtch struct {
	n   *Network
	idx int
	// name caches "sw<idx>" once a label or pause frame needed it
	// (label).
	name string

	bytes uint64 // shared-buffer occupancy (data VL)
	peak  uint64

	// egress holds the switch-to-switch ports, parallel to the
	// topology's adjacency list for this switch.
	egress []*port
	// hopOff/hopPorts are the destination-switch routing table in CSR
	// form: the equal-cost next hops toward destination switch t are
	// hopPorts[hopOff[t]:hopOff[t+1]]. egress, hopOff and hopPorts are
	// sub-slices of the network's arrays of the same names, recycled
	// with it, so warm rebuilds allocate nothing.
	hopOff   []int32
	hopPorts []*port

	Drops       uint64
	EcnMarked   uint64
	PauseFrames uint64

	arenaNext *swtch
}

// admit reserves shared-buffer space for a data entry that just left
// the upstream port toward this switch (tail drop on overflow) and runs
// the PFC XOFF check against the upstream link's accounted bytes.
// Control frames never pass through here — they ride reserved headroom
// and are never dropped or paused.
func (sw *swtch) admit(e *entry, from *port) bool {
	n := sw.n
	if int(sw.bytes)+e.ws > n.cfg.BufferBytes {
		sw.Drops++
		n.hooks.Drop(e.src, e.pkt, "switch buffer overflow")
		n.putEntry(e)
		return false
	}
	sw.bytes += uint64(e.ws)
	if sw.bytes > sw.peak {
		sw.peak = sw.bytes
	}
	// ECN marks against the shared-buffer occupancy at admission, not
	// the egress queue: admission is where congestion is first visible,
	// and a threshold below XOFF must fire before PFC throttles the
	// flow (an egress-queue check would lag one propagation flight and
	// lose that race).
	if n.cfg.ECN && !e.pkt.ECN && int(sw.bytes) >= n.cfg.ECNThresholdBytes {
		e.pkt.ECN = true
		sw.EcnMarked++
	}
	e.buf = sw
	e.acct = from
	from.acctBytes += e.ws
	if n.cfg.PFC && !from.pausedData && from.acctBytes >= n.cfg.XOffBytes {
		sw.setPause(from, true)
	}
	return true
}

// forward queues the entry on the egress toward its destination. ECN
// marking happened at admission (see admit).
func (sw *swtch) forward(e *entry) {
	sw.route(e.src, e.dst).enqueue(e)
}

// release returns the entry's bytes to the shared buffer and the PFC
// ingress accounting, resuming the upstream link once its backlog has
// drained below XON.
func (sw *swtch) release(e *entry) {
	sw.bytes -= uint64(e.ws)
	up := e.acct
	e.buf, e.acct = nil, nil
	up.acctBytes -= e.ws
	if sw.n.cfg.PFC && up.pausedData && up.acctBytes <= sw.n.cfg.XOnBytes {
		sw.setPause(up, false)
	}
}

// setPause sends a PFC pause (xoff) or resume frame to the upstream
// link's transmitter and applies it. Pause frames are link-local and
// effectively instantaneous at simulation scale.
func (sw *swtch) setPause(up *port, xoff bool) {
	n := sw.n
	sw.PauseFrames++
	if xoff {
		up.pausedData = true
		up.pauseStart = n.eng.Now()
	} else {
		up.pausedData = false
		n.pausedNs += uint64(n.eng.Now() - up.pauseStart)
	}
	if n.hooks.Pause != nil {
		n.hooks.Pause(sw.label(), up.label(), xoff)
	}
	if !xoff {
		up.pump()
	}
}

// route picks the egress port toward the destination host: the downlink
// when the destination attaches here, the single next hop when the
// routing table has one, and otherwise a seeded-hash ECMP pick across the
// equal-cost set. Hashing on the (src, dst) flow pair — never the random
// stream — keeps the pick consistent for a flow's lifetime (RC delivery
// stays FIFO per pair) and reproducible for a given engine seed.
func (sw *swtch) route(src, dst uint16) *port {
	t := sw.n.switchOf(dst)
	if t == sw.idx {
		return sw.hostPort(dst)
	}
	hops := sw.hopPorts[sw.hopOff[t]:sw.hopOff[t+1]]
	if len(hops) == 1 {
		return hops[0]
	}
	return hops[sw.n.ecmpIndex(src, dst, len(hops))]
}

// hostPort lazily creates the downlink to an attached host (sw is its
// attachment switch, the only one that routes to it).
func (sw *swtch) hostPort(dst uint16) *port {
	n := sw.n
	if int(dst) >= len(n.downlinks) {
		n.downlinks = n.hostTable(n.downlinks, dst)
	}
	p := n.downlinks[dst]
	if p == nil {
		p = n.newPort(portRole{roleDownlink, sw.idx, int(dst)}, n.edgeGbps, 0, nil)
		n.downlinks[dst] = p
	}
	return p
}

// label returns the switch's name, rendering it on first use.
func (sw *swtch) label() string {
	if sw.name == "" {
		sw.name = "sw" + strconv.Itoa(sw.idx)
	}
	return sw.name
}

// Network is the switched fabric core: the topology's switch graph plus
// one uplink queue per attached host (the host-side port PFC pauses).
type Network struct {
	eng   *sim.Engine
	cfg   Config
	hooks Hooks

	edgeGbps float64  // host links
	prop     sim.Time // per-hop propagation

	topo     Topology
	switches []*swtch
	// uplinks and downlinks are each host's two ports, indexed densely
	// by LID (a host's downlink leaves its attachment switch).
	uplinks   []*port
	downlinks []*port
	// maxLID and portsLeft size the build's storage: maxLID is the
	// largest LID AddHost announced, portsLeft the ports the build still
	// expects to take (every link, then two per announced host).
	maxLID    int
	portsLeft int

	// egress, hopOff and hopPorts back every switch's arrays of the same
	// names (see swtch), one array each per network.
	egress   []*port
	hopOff   []int32
	hopPorts []*port

	// ecmpSeed folds the engine seed into every ECMP hash so path
	// assignment is deterministic per seed without touching the engine's
	// random stream (which would perturb unrelated draws and goldens).
	ecmpSeed uint64
	// dist and bfsQ are buildRoutes scratch (a dense [dst][switch]
	// distance matrix and the BFS work queue), reused across trials.
	dist []int32
	bfsQ []int32

	scratch *scratch

	// pausedNs accumulates completed pause intervals across every link
	// (exported as tx_pause_duration, in µs, mlx5-style).
	pausedNs uint64

	// tel publishes the pause time and every switch's counters.
	tel telemetry.Registry

	arenaNext *Network
}

// scratchKey is the engine Aux key the congestion layer's recycled
// storage lives under: trial loops that rebuild the network per run on
// a Reset-reused engine keep one warm set of entries, networks, ports,
// switches and rate states.
const scratchKey = "congestion.scratch"

// scratch is the per-engine storage the congestion layer draws from.
// The entry free list is shared unconditionally (entries are
// self-contained, like packets and deliveries). Networks, ports,
// switches and rate states come from engine-generation arenas (see
// sim.Arena): a Reset frees last trial's members wholesale, while
// within one generation every constructor call gets a distinct
// instance, so side-by-side networks on one engine stay correct.
type scratch struct {
	free []*entry
	// entries carves the entries the free list has not yet seen.
	entries sim.Blocks[entry]
	// chunks carves every ring's first backing array (see ringChunk).
	chunks sim.Blocks[[ringChunk]*entry]
	// portBlocks and switchBlocks carve the ports and switches the arenas
	// do not yet hold, each build counting what it still needs
	// (Blocks.NewFor), so a cold build allocates them by block.
	portBlocks   sim.Blocks[port]
	switchBlocks sim.Blocks[swtch]

	networks sim.Arena[Network]
	ports    sim.Arena[port]
	switches sim.Arena[swtch]
	rates    sim.Arena[RateState]

	// chainTopo memoizes the implicit chain topology that configs without
	// an explicit Topology resolve to, keyed by its parameters, so warm
	// trial loops do not rebuild the adjacency slices every run.
	chainTopo Topology
	chainSw   int
	chainUF   float64
}

// chain returns the memoized degenerate chain topology for the given
// parameters, rebuilding it only when they change.
func (s *scratch) chain(switches int, uplinkFactor float64) Topology {
	if s.chainTopo.Kind == "" || s.chainSw != switches || s.chainUF != uplinkFactor {
		s.chainTopo = ChainTopology(switches, uplinkFactor)
		s.chainSw, s.chainUF = switches, uplinkFactor
	}
	return s.chainTopo
}

// scratchFor fetches or creates the engine's congestion scratch.
func scratchFor(eng *sim.Engine) *scratch {
	s, _ := eng.Aux(scratchKey).(*scratch)
	if s == nil {
		s = &scratch{}
		s.entries.Make = func(n int) []entry { return make([]entry, n) }
		s.entries.Max = entryBlock
		s.chunks.Make = func(n int) [][ringChunk]*entry { return make([][ringChunk]*entry, n) }
		s.chunks.Max = chunkBlock
		s.portBlocks.Make = func(n int) []port { return make([]port, n) }
		s.portBlocks.Max = uncountedBlock
		s.switchBlocks.Make = func(n int) []swtch { return make([]swtch, n) }
		s.switchBlocks.Max = uncountedBlock
		s.networks.Link = func(n *Network) **Network { return &n.arenaNext }
		s.ports.Link = func(p *port) **port { return &p.arenaNext }
		s.switches.Link = func(sw *swtch) **swtch { return &sw.arenaNext }
		s.rates.Link = func(rs *RateState) **RateState { return &rs.arenaNext }
		eng.SetAux(scratchKey, s)
	}
	return s
}

// serTime is the serialization delay of wireBytes at gbps.
func serTime(wireBytes int, gbps float64) sim.Time {
	return sim.Time(float64(wireBytes*8) / gbps)
}

// NewNetwork builds the configured switch topology on eng. linkGbps and
// propDelay mirror the owning fabric's link model; hooks connect
// delivery, drops and pause-frame visibility back to it. Networks, their
// switches and ports are recycled across Engine.Reset generations, so
// sweeps that rebuild the fabric per trial reuse one warm topology.
func NewNetwork(eng *sim.Engine, cfg Config, linkGbps float64, propDelay sim.Time, hooks Hooks) *Network {
	cfg = cfg.withDefaults()
	if cfg.PFC && cfg.XOffBytes <= cfg.XOnBytes {
		panic("congestion: XOffBytes must be greater than XOnBytes")
	}
	s := scratchFor(eng)
	topo := cfg.Topology
	if topo.Kind == "" {
		topo = s.chain(cfg.Switches, cfg.UplinkFactor)
	}
	n := s.getNetwork(eng)
	n.eng = eng
	n.cfg = cfg
	n.hooks = hooks
	n.edgeGbps = linkGbps
	n.prop = propDelay
	n.topo = topo
	n.ecmpSeed = uint64(eng.Seed()) * 0x9e3779b97f4a7c15
	n.scratch = s
	S, links := topo.SwitchCount(), topo.LinkCount()
	n.switches = resize(n.switches, S)
	for i := range n.switches {
		n.switches[i] = n.getSwitch(i, S-i)
	}
	// Create the switch-to-switch ports in adjacency order — for a chain
	// this is left-then-right per switch, the exact creation order (and
	// therefore port-arena assignment) of the pre-topology builder.
	n.portsLeft = links
	n.egress = resize(n.egress, links)
	egress := n.egress
	for i, sw := range n.switches {
		adj := topo.Adj[i]
		sw.egress, egress = egress[:len(adj):len(adj)], egress[len(adj):]
		for j, l := range adj {
			prop := n.prop
			if l.PropFactor != 1 {
				prop = sim.Time(float64(prop) * l.PropFactor)
			}
			sw.egress[j] = n.newPort(portRole{roleCore, i, l.To}, linkGbps/l.SpeedDiv, prop, n.switches[l.To])
		}
	}
	n.buildRoutes()
	// Pre-size the engine's lite heap from the link count: every link can
	// hold a tx-done event plus propagation flights at once, and each
	// leaf adds host up/downlinks. Warm engines already have the capacity,
	// so this is a cold-start courtesy, not a per-trial cost.
	eng.PreallocEvents(8 * (links + 2*len(topo.Leaves)))
	n.registerMetrics()
	return n
}

// buildRoutes computes the destination-switch routing tables: a BFS from
// every destination over the (symmetric) adjacency yields hop distances,
// and each switch's equal-cost next hops toward t are exactly its links
// that step one closer. The hops are counted first, so every switch's
// CSR arrays are carved from the network's two recycled arrays, sized
// once: rebuilding the same topology allocates nothing once warm.
// Adjacency order fixes the hop order, which makes ECMP picks a pure
// function of (topology, seed, src, dst).
func (n *Network) buildRoutes() {
	S := len(n.switches)
	n.dist = resize(n.dist, S*S)
	if cap(n.bfsQ) < S {
		n.bfsQ = make([]int32, 0, S)
	}
	for t := 0; t < S; t++ {
		dist := n.dist[t*S : t*S+S]
		for i := range dist {
			dist[i] = -1
		}
		dist[t] = 0
		q := append(n.bfsQ[:0], int32(t))
		for head := 0; head < len(q); head++ {
			v := int(q[head])
			for _, l := range n.topo.Adj[v] {
				if dist[l.To] == -1 {
					dist[l.To] = dist[v] + 1
					q = append(q, int32(l.To))
				}
			}
		}
		n.bfsQ = q[:0]
	}
	total := 0
	for si := range n.switches {
		for t := 0; t < S; t++ {
			if t != si {
				total += n.nextHops(si, t, nil)
			}
		}
	}
	n.hopOff = resize(n.hopOff, S*(S+1))
	n.hopPorts = resize(n.hopPorts, total)
	off, ports := n.hopOff, n.hopPorts
	for si, sw := range n.switches {
		sw.hopOff, off = off[:S+1:S+1], off[S+1:]
		k := int32(0)
		for t := 0; t < S; t++ {
			sw.hopOff[t] = k
			if t != si {
				k += int32(n.nextHops(si, t, ports[k:]))
			}
		}
		sw.hopOff[S] = k
		sw.hopPorts, ports = ports[:k:k], ports[k:]
	}
}

// nextHops returns how many equal-cost next hops switch si has toward
// switch t (the links that step one closer), writing them to hops in
// adjacency order unless hops is nil.
func (n *Network) nextHops(si, t int, hops []*port) int {
	S := len(n.switches)
	dist := n.dist[t*S : t*S+S]
	if dist[si] < 0 {
		panic("congestion: switch " + n.switches[si].label() + " has no route to " + n.switches[t].label())
	}
	k := 0
	for ai, l := range n.topo.Adj[si] {
		if dist[l.To] == dist[si]-1 {
			if hops != nil {
				hops[k] = n.switches[si].egress[ai]
			}
			k++
		}
	}
	return k
}

// resize returns s at length n, reusing its backing array when it is
// large enough. Callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ecmpIndex hashes the flow pair with the seed-derived key into one of k
// equal-cost hops (a splitmix-style finalizer: cheap, stateless and
// well-mixed for adjacent LIDs).
func (n *Network) ecmpIndex(src, dst uint16, k int) int {
	h := n.ecmpSeed ^ uint64(src)<<16 ^ uint64(dst)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(k))
}

// getNetwork grabs a recycled Network (or allocates the arena's next
// one) and resets its per-trial state.
func (s *scratch) getNetwork(eng *sim.Engine) *Network {
	n := s.networks.Take(eng)
	if n != nil {
		clear(n.uplinks)
		n.uplinks = n.uplinks[:0]
		clear(n.downlinks)
		n.downlinks = n.downlinks[:0]
		n.maxLID = 0
		n.pausedNs = 0
	} else {
		n = &Network{}
		s.networks.Add(n)
	}
	return n
}

// getSwitch grabs a recycled switch for graph position idx, resetting
// its counters and buffer accounting, or carves a fresh one for a build
// that still takes left switches. The cached name is dropped only when
// the struct serves a different position than last trial.
func (n *Network) getSwitch(idx, left int) *swtch {
	s := n.scratch
	sw := s.switches.Take(n.eng)
	if sw != nil {
		sw.bytes, sw.peak = 0, 0
		sw.Drops, sw.EcnMarked, sw.PauseFrames = 0, 0, 0
	} else {
		sw = s.switchBlocks.NewFor(left)
		s.switches.Add(sw)
	}
	sw.n = n
	if sw.idx != idx {
		sw.idx = idx
		sw.name = ""
	}
	return sw
}

// TierStat aggregates one tier's switch counters, for per-tier reporting
// in workloads (the telemetry registry carries the same data under the
// "tier" label on the sim_switch_* series).
type TierStat struct {
	Tier        string
	Switches    int
	Drops       uint64
	EcnMarked   uint64
	PauseFrames uint64
	// PeakBytes is the highest shared-buffer high-water mark across the
	// tier's switches.
	PeakBytes uint64
}

// TierStats returns per-tier aggregates in tier order (leaf → spine).
func (n *Network) TierStats() []TierStat {
	stats := make([]TierStat, len(n.topo.TierNames))
	for i, name := range n.topo.TierNames {
		stats[i].Tier = name
	}
	for i, sw := range n.switches {
		st := &stats[n.topo.TierOf[i]]
		st.Switches++
		st.Drops += sw.Drops
		st.EcnMarked += sw.EcnMarked
		st.PauseFrames += sw.PauseFrames
		if sw.peak > st.PeakBytes {
			st.PeakBytes = sw.peak
		}
	}
	return stats
}

// Telemetry returns the network's counter registry.
func (n *Network) Telemetry() *telemetry.Registry { return &n.tel }

// PauseDurationMicros returns the accumulated pause time across every
// link, in microseconds (completed pauses only; a drained simulation has
// none outstanding).
func (n *Network) PauseDurationMicros() float64 { return float64(n.pausedNs) / 1e3 }

// metrics is the network-wide table: the pause time across all links.
var metrics = telemetry.Table[Network]{
	{Name: telemetry.TxPauseDuration, Help: "accumulated PFC pause time across all links [µs]", Kind: telemetry.KindGauge, Read: (*Network).PauseDurationMicros},
}

// switchMetrics is the per-switch table, labelled by each switch's name
// and tier (AppendLabels).
var switchMetrics = telemetry.Table[swtch]{
	{Name: telemetry.SimSwitchDrops, Help: "packets tail-dropped on shared-buffer overflow", Read: func(sw *swtch) float64 { return float64(sw.Drops) }},
	{Name: telemetry.SimSwitchEcnMarked, Help: "packets ECN-marked at egress", Read: func(sw *swtch) float64 { return float64(sw.EcnMarked) }},
	{Name: telemetry.SimSwitchPauseFrames, Help: "PFC pause/resume frames sent", Read: func(sw *swtch) float64 { return float64(sw.PauseFrames) }},
	{Name: telemetry.SimSwitchQueueBytes, Help: "shared-buffer occupancy [bytes]", Kind: telemetry.KindGauge, Read: func(sw *swtch) float64 { return float64(sw.bytes) }},
	{Name: telemetry.SimSwitchQueuePeak, Help: "shared-buffer high-water mark [bytes]", Kind: telemetry.KindGauge, Read: func(sw *swtch) float64 { return float64(sw.peak) }},
}

// AppendLabels labels the switch's counters with its name and tier
// (telemetry.Labeler). The tier is read from this build's topology: a
// recycled switch may serve a chain one trial and a Clos the next.
func (sw *swtch) AppendLabels(dst []telemetry.Label) []telemetry.Label {
	return append(dst, telemetry.Label{Key: "switch", Value: sw.label()},
		telemetry.Label{Key: "tier", Value: sw.n.topo.TierName(sw.idx)})
}

// registerMetrics publishes the pause gauge and every switch's counters
// on the network's registry, emptied for this build.
func (n *Network) registerMetrics() {
	n.tel.Reset(telemetry.Label{Key: "device", Value: "congestion"})
	telemetry.Register(&n.tel, &metrics, n)
	for _, sw := range n.switches {
		telemetry.Register(&n.tel, &switchMetrics, sw)
	}
}

// switchOf maps a host LID onto its attachment switch (round-robin over
// the topology's leaves; for a chain every switch is a leaf, reproducing
// the old placement exactly).
func (n *Network) switchOf(lid uint16) int {
	leaves := n.topo.Leaves
	if lid == 0 {
		return leaves[0]
	}
	return leaves[int(lid-1)%len(leaves)]
}

// newPort grabs a recycled port for the given link role, resetting its
// queues, PFC state and wire state, or carves a fresh one from a block
// sized by the ports the build still expects to take (portsLeft). The
// cached name is kept when the struct serves the same link as last trial
// (the common case in sweep loops), so warm rebuilds allocate no
// strings.
func (n *Network) newPort(role portRole, gbps float64, prop sim.Time, dst *swtch) *port {
	s := n.scratch
	p := s.ports.Take(n.eng)
	if p != nil {
		for vl := range p.q {
			p.q[vl].reset()
			p.qbytes[vl] = 0
		}
		p.wire.reset()
		p.pausedData, p.pauseStart, p.acctBytes = false, 0, 0
		p.busy, p.cur = false, nil
	} else {
		p = s.portBlocks.NewFor(n.portsLeft)
		s.ports.Add(p)
	}
	n.portsLeft--
	p.n = n
	if p.role != role {
		p.role = role
		p.name = ""
	}
	p.gbps = gbps
	p.prop = prop
	p.dstSwitch = dst
	return p
}

// AddHost announces a host port with this LID. Hosts attach after the
// switches are built and send only later, so a network told of its hosts
// sizes its LID-indexed tables at the first packet and carves the hosts'
// ports from one block, instead of growing both one host at a time. The
// fabric announces every port it attaches.
func (n *Network) AddHost(lid uint16) {
	n.maxLID = max(n.maxLID, int(lid))
	n.portsLeft += 2 // the host's uplink and downlink
}

// hostTable returns the LID-indexed table t extended to cover lid and
// every announced host, its new entries nil.
func (n *Network) hostTable(t []*port, lid uint16) []*port {
	size := max(int(lid), n.maxLID) + 1
	if cap(t) < size {
		return append(t, make([]*port, size-len(t))...)
	}
	old := len(t)
	t = t[:size]
	clear(t[old:])
	return t
}

// uplink lazily creates the host's egress queue into its edge switch.
func (n *Network) uplink(src uint16) *port {
	if int(src) >= len(n.uplinks) {
		n.uplinks = n.hostTable(n.uplinks, src)
	}
	p := n.uplinks[src]
	if p == nil {
		sw := n.switches[n.switchOf(src)]
		p = n.newPort(portRole{roleUplink, int(src), sw.idx}, n.edgeGbps, n.prop, sw)
		n.uplinks[src] = p
	}
	return p
}

// Send injects a packet the fabric accepted for transmission. Ownership
// of pkt stays with the fabric's pool contract: the network hands it
// back through Hooks.Deliver or Hooks.Drop, never keeps it.
func (n *Network) Send(src, dst uint16, pkt *packet.Packet, ws int) {
	e := n.getEntry()
	e.pkt, e.ws, e.src, e.dst = pkt, ws, src, dst
	e.vl = VLData
	if pkt.Opcode == packet.OpCNP {
		e.vl = VLControl
	}
	n.uplink(src).enqueue(e)
}

// QueuedBytes reports the data-VL backlog buffered across the switch
// chain (diagnostics and tests).
func (n *Network) QueuedBytes() int {
	total := 0
	for _, sw := range n.switches {
		total += int(sw.bytes)
	}
	return total
}

// entryBlock caps a block of fresh entries at 128: 8 KiB.
const entryBlock = 128

// chunkBlock caps a block of ring chunks at 64: 8 KiB.
const chunkBlock = 64

// uncountedBlock caps the blocks of ports and switches a build carves
// past its own count (a network used without AddHost): small, because
// such a build's unused tail is at most one block.
const uncountedBlock = 16

func (n *Network) getEntry() *entry {
	s := n.scratch
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return e
	}
	return s.entries.New()
}

func (n *Network) putEntry(e *entry) {
	e.pkt, e.buf, e.acct = nil, nil, nil
	s := n.scratch
	s.free = append(s.free, e)
}
