// Package fabric models the InfiniBand fabric between RNIC ports: LID
// addressing, per-hop propagation and serialization delay, strictly
// in-order delivery per (source, destination) pair as Reliable Connection
// assumes, drop-on-unknown-LID (the paper's wrong-destination-LID
// experiment), and taps that let a capture layer observe every packet the
// way ibdump does.
//
// The datapath is allocation-free once warm: packets are recycled through
// a packet.Pool attached to the engine, and scheduled arrivals reuse
// preallocated delivery events. See DESIGN.md §8 for the ownership
// contract this imposes on handlers and taps.
package fabric

import (
	"fmt"
	"strconv"

	"odpsim/internal/congestion"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// Handler receives a delivered packet on a port. The packet is a borrow:
// it is valid only until the handler returns, after which the fabric
// recycles it (DESIGN.md §8). Handlers must copy any state they keep.
type Handler func(*packet.Packet)

// Config tunes the fabric's latency model.
type Config struct {
	// PropDelay is the one-way propagation + switching delay per packet.
	// The paper cites usual round-trip latencies of a few microseconds.
	PropDelay sim.Time
	// BandwidthGbps sets the serialization rate.
	BandwidthGbps float64
	// DelayJitter is the relative jitter applied to PropDelay (delivery
	// order per source/destination pair is still preserved).
	DelayJitter float64
}

// DefaultConfig models a 56 Gb/s FDR link with ~2 µs one-way latency.
func DefaultConfig() Config {
	return Config{
		PropDelay:     2 * sim.Microsecond,
		BandwidthGbps: 56,
		DelayJitter:   0.05,
	}
}

// TapEvent is one observation of a packet on the fabric. Pkt is a borrow
// valid only for the duration of the tap call — observers that keep
// packet state must copy it (capture stores Records by value).
type TapEvent struct {
	At      sim.Time
	Pkt     *packet.Packet
	SrcName string
	DstName string // empty when the packet was dropped
	Dropped bool
	Reason  string // drop reason, e.g. "unknown DLID"
}

// Tap observes every packet send.
type Tap func(TapEvent)

// Port is one RNIC attachment point.
type Port struct {
	LID uint16
	// line caches the delay line to lineDst, the last destination this
	// port's packets flew to, so a port with one peer never hashes.
	// lineDst shares LID's word, which keeps Port in the 96-byte size
	// class with its arena link.
	lineDst uint16
	line    *deliveryLine
	Name    string
	fab     *Fabric
	handler Handler

	// Counters, in the sysfs port-counter vocabulary. TxPackets/TxBytes
	// count at Send time, RxPackets/RxBytes at delivery, TxDiscards on
	// any drop (unknown DLID, drop filter, random loss).
	TxPackets  uint64
	RxPackets  uint64
	TxBytes    uint64
	RxBytes    uint64
	TxDiscards uint64

	arenaNext *Port
}

// portMetrics is the port counter table. The simulator models one port
// per device, so every port carries port="1", and the LID (AppendLabels)
// distinguishes attachment points.
var portMetrics = telemetry.Table[Port]{
	{Name: telemetry.PortXmitPackets, Help: "packets transmitted by the port", Label: portOne, Read: func(p *Port) float64 { return float64(p.TxPackets) }},
	{Name: telemetry.PortRcvPackets, Help: "packets delivered to the port", Label: portOne, Read: func(p *Port) float64 { return float64(p.RxPackets) }},
	{Name: telemetry.PortXmitData, Help: "bytes transmitted by the port", Label: portOne, Read: func(p *Port) float64 { return float64(p.TxBytes) }},
	{Name: telemetry.PortRcvData, Help: "bytes delivered to the port", Label: portOne, Read: func(p *Port) float64 { return float64(p.RxBytes) }},
	{Name: telemetry.PortXmitDiscards, Help: "transmitted packets dropped by the fabric", Label: portOne, Read: func(p *Port) float64 { return float64(p.TxDiscards) }},
}

var portOne = telemetry.Label{Key: "port", Value: "1"}

// RegisterMetrics publishes the port counters on reg.
func (p *Port) RegisterMetrics(reg *telemetry.Registry) { telemetry.Register(reg, &portMetrics, p) }

// AppendLabels labels the port's counters with its LID (telemetry.Labeler).
func (p *Port) AppendLabels(dst []telemetry.Label) []telemetry.Label {
	return append(dst, telemetry.Label{Key: "lid", Value: strconv.Itoa(int(p.LID))})
}

// delivery is one scheduled packet arrival. Deliveries are recycled
// through the fabric's free list, and its pair's delay line runs them
// (see deliveryLine), so scheduling an arrival allocates nothing once
// the list is warm — the closure the old datapath captured per send is
// gone.
type delivery struct {
	f   *Fabric
	dst *Port
	pkt *packet.Packet
	ws  uint64
	// at and seq are the arrival deadline and the reserved engine
	// tie-break while the delivery waits on its pair's delay line (see
	// deliveryLine). seq is claimed at schedule time so same-instant
	// ties resolve exactly as if every delivery were in the heap.
	at  sim.Time
	seq uint64
}

// run fires one arrival: delivery counters, the handler's synchronous
// borrow, and then the packet returns to the pool.
func (d *delivery) run() {
	f, dst, pkt, ws := d.f, d.dst, d.pkt, d.ws
	// Recycle the delivery before the handler runs: handlers send
	// packets of their own (ACKs, READ responses), and those sends can
	// reuse this event immediately.
	d.dst, d.pkt = nil, nil
	f.scratch.freeDel = append(f.scratch.freeDel, d)
	f.Delivered++
	dst.RxPackets++
	dst.RxBytes += ws
	dst.handler(pkt)
	f.pool.Put(pkt)
}

// deliveryLine is one (src, dst) pair's propagation delay line. The
// per-pair FIFO clamp (no deadline earlier than the line's tail) makes
// arrival deadlines monotone per pair, so in-flight deliveries land
// strictly in order — only the head delivery holds a scheduled engine
// callback, and landing fires or re-arms the next head. With a 2 µs
// wire over nanosecond-scale packet spacing this keeps hundreds of
// in-flight packets out of the event heap (heap depth is what every
// push and pop pays for).
type deliveryLine struct {
	f    *Fabric
	buf  []*delivery // power-of-two ring
	head int
	n    int
	fn   func()
	// The pad makes a line 64 bytes, so a line carved from a block sits
	// in one cache line, as a line allocated on its own did.
	_ [8]byte
}

// lineChunk is the length of a line's first ring, carved from the
// engine's chunk blocks at the line's first push: most pairs never have
// more than 16 packets in flight, so a line costs no allocation of its
// own until it outgrows the chunk (then it doubles).
const lineChunk = 16

// push appends d at the tail, growing the ring only when full; an empty
// line takes its first chunk from s.
func (l *deliveryLine) push(d *delivery, s *scratch) {
	if l.n == len(l.buf) {
		if l.buf == nil {
			l.buf = s.chunks.New()[:]
		} else {
			buf := make([]*delivery, 2*len(l.buf))
			for i := 0; i < l.n; i++ {
				buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
			}
			l.buf = buf
			l.head = 0
		}
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = d
	l.n++
}

// land fires when the head delivery reaches the destination, and keeps
// landing while the line's next flight is the engine's next event
// (sim.Engine.Claim); otherwise it arms that flight and returns. Whether
// the line is still armed is decided before the arrival runs: a handler
// that sends onto this line (a port replying to its own LID) refills an
// empty line mid-handler, and that send arms the new head itself.
// Flights keep the seqs they reserved on entry, so pop order is the one
// eager scheduling would give.
func (l *deliveryLine) land() {
	for {
		d := l.buf[l.head]
		l.buf[l.head] = nil
		l.head = (l.head + 1) & (len(l.buf) - 1)
		l.n--
		armed := l.n > 0
		d.run()
		if !armed {
			return
		}
		next := l.buf[l.head]
		if !l.f.eng.Claim(next.at, next.seq) {
			l.f.eng.ScheduleSeq(next.at, next.seq, l.fn)
			return
		}
	}
}

// clear drops deliveries an abandoned run left in flight, recycling
// their storage (their packets are gone with the old run, matching the
// engine Reset that already dropped the line's scheduled callback).
func (l *deliveryLine) clear(s *scratch) {
	for i := 0; i < l.n; i++ {
		d := l.buf[(l.head+i)&(len(l.buf)-1)]
		l.buf[(l.head+i)&(len(l.buf)-1)] = nil
		d.dst, d.pkt = nil, nil
		s.freeDel = append(s.freeDel, d)
	}
	l.head, l.n = 0, 0
}

// scratchKey is the engine Aux key the fabric's recycled storage lives
// under. Keyed on the engine (not the fabric) so trial loops that rebuild
// the cluster per run on a Reset-reused engine keep one warm set of
// packet storage, delivery events, LID tables, delay lines and ports.
const scratchKey = "fabric.scratch"

// scratch is the per-engine storage a fabric draws from. The packet pool
// and delivery free list are shared unconditionally (their objects are
// self-contained). The fabrics, their LID tables and the ports come
// from engine-generation arenas (see sim.Arena), so each fabric of a
// generation takes its own, and two fabrics side by side on one engine
// stay correct.
type scratch struct {
	pool    *packet.Pool
	freeDel []*delivery
	// deliveries carves the deliveries the free list has not yet seen.
	deliveries sim.Blocks[delivery]
	// lines carves the delay lines of new pairs, and chunks their first
	// rings (see lineChunk). Lines live in the tables' maps, which keep
	// them across trials.
	lines  sim.Blocks[deliveryLine]
	chunks sim.Blocks[[lineChunk]*delivery]

	fabrics sim.Arena[Fabric]
	tables  sim.Arena[tables]
	ports   sim.Arena[Port]
}

// tables are a fabric's LID-indexed tables and delay lines (see the
// Fabric fields of the same names). A recycled record keeps every
// backing array, cleared of its stale contents.
type tables struct {
	ports     []*Port
	lines     map[uint32]*deliveryLine
	arenaNext *tables
}

// scratchFor fetches or creates the engine's fabric scratch.
func scratchFor(eng *sim.Engine) *scratch {
	s, _ := eng.Aux(scratchKey).(*scratch)
	if s == nil {
		s = &scratch{pool: packet.NewPool()}
		s.deliveries.Make = func(n int) []delivery { return make([]delivery, n) }
		s.deliveries.Max = deliveryBlock
		s.lines.Make = func(n int) []deliveryLine { return make([]deliveryLine, n) }
		s.lines.Max = lineBlock
		s.chunks.Make = func(n int) [][lineChunk]*delivery { return make([][lineChunk]*delivery, n) }
		s.chunks.Max = chunkBlock
		s.fabrics.Link = func(f *Fabric) **Fabric { return &f.arenaNext }
		s.tables.Link = func(t *tables) **tables { return &t.arenaNext }
		s.ports.Link = func(p *Port) **Port { return &p.arenaNext }
		eng.SetAux(scratchKey, s)
	}
	return s
}

// Fabric connects ports. All methods run on the simulation loop.
type Fabric struct {
	eng  *sim.Engine
	cfg  Config
	taps []Tap
	// ports is the attachment table, dense and indexed by LID (LIDs are
	// small integers the cluster layer assigns). lines holds the delay
	// line of every (src, dst) pair that has carried a packet, keyed
	// src<<16 | dst, so per-pair state grows with the pairs that talk,
	// not with LIDs².
	ports []*Port
	lines map[uint32]*deliveryLine
	// pool recycles packet storage through the datapath; the delivery
	// free list lives in the shared scratch. tables is the arena record
	// the LID tables above came from; grow writes resized ones back.
	pool    *packet.Pool
	scratch *scratch
	tables  *tables
	// lossRate drops each packet independently with this probability.
	lossRate float64
	// dropFilter, when non-nil, drops packets it returns true for.
	dropFilter func(*packet.Packet) bool
	// net, when non-nil, replaces the analytic latency model with the
	// switched lossless-fabric model: accepted packets enter the switch
	// topology and come back through deliverFromNet / dropFromNet.
	net *congestion.Network
	// Counters. Dropped is the total; the Drops* fields split it by
	// reason and back the labeled sim_fabric_packets_dropped series.
	Sent            uint64
	Delivered       uint64
	Dropped         uint64
	BytesSent       uint64
	DropsLoss       uint64
	DropsUnroutable uint64
	DropsFilter     uint64
	DropsCongestion uint64

	// tel publishes the fabric-wide counters above. It sits after the
	// fields the datapath touches, off their cache lines.
	tel telemetry.Registry

	// arenaNext links the engine's fabric arena (New).
	arenaNext *Fabric
}

// metrics is the fabric-wide counter table. Drops are published per
// reason; Snapshot.Total over the name gives the old aggregate (the
// Dropped field stays the Go-side total).
var metrics = telemetry.Table[Fabric]{
	{Name: telemetry.SimFabricPacketsSent, Help: "packets handed to the fabric", Read: func(f *Fabric) float64 { return float64(f.Sent) }},
	{Name: telemetry.SimFabricPacketsDelivered, Help: "packets delivered to a port", Read: func(f *Fabric) float64 { return float64(f.Delivered) }},
	{Name: telemetry.SimFabricBytesSent, Help: "wire bytes handed to the fabric", Read: func(f *Fabric) float64 { return float64(f.BytesSent) }},
	{Name: telemetry.SimFabricPacketsDropped, Help: "packets dropped by the loss injector", Label: dropReason("loss"), Read: func(f *Fabric) float64 { return float64(f.DropsLoss) }},
	{Name: telemetry.SimFabricPacketsDropped, Help: "packets dropped for an unknown DLID", Label: dropReason("unroutable"), Read: func(f *Fabric) float64 { return float64(f.DropsUnroutable) }},
	{Name: telemetry.SimFabricPacketsDropped, Help: "packets dropped by an experiment drop filter", Label: dropReason("filter"), Read: func(f *Fabric) float64 { return float64(f.DropsFilter) }},
	{Name: telemetry.SimFabricPacketsDropped, Help: "packets tail-dropped by congested switches", Label: dropReason("congestion"), Read: func(f *Fabric) float64 { return float64(f.DropsCongestion) }},
}

func dropReason(r string) telemetry.Label { return telemetry.Label{Key: "reason", Value: r} }

// New creates a fabric on engine eng. The Fabric struct comes from the
// engine's fabric arena, reset whole, so a trial loop that rebuilds its
// fabric on a Reset-reused engine allocates none.
func New(eng *sim.Engine, cfg Config) *Fabric {
	if cfg.BandwidthGbps <= 0 {
		cfg.BandwidthGbps = 56
	}
	s := scratchFor(eng)
	f := s.fabrics.Take(eng)
	if f == nil {
		f = new(Fabric)
		s.fabrics.Add(f)
	}
	// The arena link survives the reset; dropping it would cut the
	// arena's chain at this fabric. So does the registry, whose Reset
	// keeps its tables' storage.
	*f = Fabric{
		eng:       eng,
		cfg:       cfg,
		tel:       f.tel,
		scratch:   s,
		pool:      s.pool,
		arenaNext: f.arenaNext,
	}
	t := s.tables.Take(eng)
	if t == nil {
		t = &tables{lines: make(map[uint32]*deliveryLine)}
		s.tables.Add(t)
	} else {
		// Last run's tables and delay lines, cleared of their stale
		// contents but keeping every backing array.
		clear(t.ports)
		for _, l := range t.lines {
			if l.n > 0 {
				l.clear(s)
			}
		}
	}
	f.tables = t
	f.ports, f.lines = t.ports, t.lines
	f.tel.Reset(telemetry.Label{Key: "device", Value: "fabric"})
	telemetry.Register(&f.tel, &metrics, f)
	return f
}

// EnableCongestion replaces the fabric's analytic latency model with the
// switched lossless-fabric model of internal/congestion: packets the
// fabric accepts traverse switch buffers, PFC and ECN before delivery.
// Call it once, after New and before traffic. Returns the network so
// callers can export its telemetry.
func (f *Fabric) EnableCongestion(cfg congestion.Config) *congestion.Network {
	if f.net != nil {
		panic("fabric: EnableCongestion called twice")
	}
	f.net = congestion.NewNetwork(f.eng, cfg, f.cfg.BandwidthGbps, f.cfg.PropDelay, congestion.Hooks{
		Deliver: f.deliverFromNet,
		Drop:    f.dropFromNet,
		Pause:   f.tapPause,
	})
	for _, p := range f.ports {
		if p != nil {
			f.net.AddHost(p.LID)
		}
	}
	return f.net
}

// Network returns the congestion network, or nil when the analytic
// latency model is active.
func (f *Fabric) Network() *congestion.Network { return f.net }

// deliverFromNet schedules final delivery for a packet leaving the
// switched network's last hop: the fabric's jittered propagation delay
// covers the downlink wire, and scheduleDelivery's per-pair FIFO clamp
// keeps jitter from reordering an RC flow.
func (f *Fabric) deliverFromNet(dstLID uint16, pkt *packet.Packet, ws int) {
	at := f.eng.Now() + f.eng.Jitter(f.cfg.PropDelay, f.cfg.DelayJitter)
	d := f.getDelivery()
	d.dst, d.pkt, d.ws = f.ports[dstLID], pkt, uint64(ws)
	f.scheduleDelivery(f.ports[pkt.SLID].lineTo(dstLID), d, at)
}

// dropFromNet accounts a switch tail drop. The packet was already
// tapped once at Send; the second tap event with Dropped set is how a
// capture sees that the wire copy never arrived.
func (f *Fabric) dropFromNet(srcLID uint16, pkt *packet.Packet, reason string) {
	f.Dropped++
	f.DropsCongestion++
	if src := f.ports[srcLID]; src != nil {
		src.TxDiscards++
	}
	if len(f.taps) > 0 {
		f.emitTap(TapEvent{At: f.eng.Now(), Pkt: pkt, SrcName: f.portName(srcLID), Dropped: true, Reason: reason})
	}
	f.pool.Put(pkt)
}

// tapPause surfaces a PFC pause/resume frame to the taps as a synthetic
// pool packet (borrowed for the tap call, returned immediately), so
// captures show pause frames the way a port mirror would.
func (f *Fabric) tapPause(from, to string, xoff bool) {
	if len(f.taps) == 0 {
		return
	}
	pkt := f.pool.Get()
	pkt.Opcode = packet.OpPFCPause
	pkt.XOff = xoff
	pkt.VL = congestion.VLData
	f.emitTap(TapEvent{At: f.eng.Now(), Pkt: pkt, SrcName: from, DstName: to})
	f.pool.Put(pkt)
}

// portName returns the attached port's name, or "" for an unknown LID.
func (f *Fabric) portName(lid uint16) string {
	if int(lid) < len(f.ports) && f.ports[lid] != nil {
		return f.ports[lid].Name
	}
	return ""
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Pool returns the fabric's packet pool. Senders draw transmit packets
// from it; the fabric returns every packet after final delivery or drop.
func (f *Fabric) Pool() *packet.Pool { return f.pool }

// Telemetry returns the fabric-wide counter registry (per-port counters
// live on the owning device's registry; see Port.RegisterMetrics).
func (f *Fabric) Telemetry() *telemetry.Registry { return &f.tel }

// grow extends the LID-indexed tables to hold n entries. Capacity at
// least doubles, so a cluster attaching LIDs one by one reallocates
// O(log n) times.
func (f *Fabric) grow(n int) {
	if n <= len(f.ports) {
		return
	}
	if cap(f.ports) < n {
		c := max(n, 2*cap(f.ports), 16)
		f.ports = append(make([]*Port, 0, c), f.ports...)
	}
	f.ports = f.ports[:n]
	f.tables.ports = f.ports
}

// AttachPort registers a port with the given LID, taken from the
// engine's port arena. LIDs must be unique.
func (f *Fabric) AttachPort(lid uint16, name string, h Handler) *Port {
	f.grow(int(lid) + 1)
	if f.ports[lid] != nil {
		panic(fmt.Sprintf("fabric: duplicate LID %d", lid))
	}
	p := f.scratch.ports.Take(f.eng)
	if p == nil {
		p = new(Port)
		f.scratch.ports.Add(p)
	}
	// The arena link survives the reset; dropping it would cut the
	// arena's chain at this port.
	*p = Port{LID: lid, Name: name, fab: f, handler: h, arenaNext: p.arenaNext}
	f.ports[lid] = p
	if f.net != nil {
		f.net.AddHost(lid)
	}
	return p
}

// AddTap registers an observer for every packet sent through the fabric.
func (f *Fabric) AddTap(t Tap) { f.taps = append(f.taps, t) }

// SetLossRate makes the fabric drop each packet independently with
// probability p (0 disables).
func (f *Fabric) SetLossRate(p float64) { f.lossRate = p }

// SetDropFilter installs a predicate that drops matching packets; nil
// clears it. Used by experiments that surgically lose one packet.
func (f *Fabric) SetDropFilter(fn func(*packet.Packet) bool) { f.dropFilter = fn }

// serialization returns the time to clock wireBytes onto the wire.
func (f *Fabric) serialization(wireBytes int) sim.Time {
	bits := float64(wireBytes * 8)
	ns := bits / f.cfg.BandwidthGbps // Gb/s == bits/ns
	return sim.Time(ns)
}

func (f *Fabric) emitTap(ev TapEvent) {
	for _, t := range f.taps {
		t(ev)
	}
}

// lineTo returns the delay line from p to dst, creating it on the pair's
// first packet. The port's one-entry cache answers repeat lookups; the
// rest is findLine, kept out of line so this stays inlined in Send.
func (p *Port) lineTo(dst uint16) *deliveryLine {
	if p.line != nil && p.lineDst == dst {
		return p.line
	}
	return p.findLine(dst)
}

// findLine looks up or creates the delay line from p to dst and caches
// it on the port.
func (p *Port) findLine(dst uint16) *deliveryLine {
	f := p.fab
	key := uint32(p.LID)<<16 | uint32(dst)
	l := f.lines[key]
	if l == nil {
		l = f.scratch.lines.New()
		l.fn = l.land
		f.lines[key] = l
	}
	l.f = f // lines outlive per-trial fabrics, like the delivery free list
	p.line, p.lineDst = l, dst
	return l
}

// scheduleDelivery queues d on its pair's delay line l to land at at,
// arming the line's callback only when d is the new head. The FIFO clamp
// lifts at to the line's tail so jitter never reorders a pair; an empty
// line needs none, because its last flight has landed and at ≥ now.
func (f *Fabric) scheduleDelivery(l *deliveryLine, d *delivery, at sim.Time) {
	if l.n > 0 {
		at = max(at, l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at)
	}
	d.at = at
	d.seq = f.eng.ReserveSeq()
	if l.n == 0 {
		f.eng.ScheduleSeq(at, d.seq, l.fn)
	}
	l.push(d, f.scratch)
}

// deliveryBlock caps a block of fresh deliveries at 170: 8,160 bytes,
// which fills one 8 KiB size class.
const deliveryBlock = 170

// lineBlock caps a block of fresh delay lines at 128, and chunkBlock a
// block of line chunks at 64: 8 KiB each.
const (
	lineBlock  = 128
	chunkBlock = 64
)

// getDelivery pops a recycled delivery event, or carves a fresh one.
func (f *Fabric) getDelivery() *delivery {
	s := f.scratch
	n := len(s.freeDel)
	if n == 0 {
		d := s.deliveries.New()
		d.f = f
		return d
	}
	d := s.freeDel[n-1]
	s.freeDel[n-1] = nil
	s.freeDel = s.freeDel[:n-1]
	d.f = f // the free list outlives per-trial fabrics
	return d
}

// Send transmits pkt from the port. The SLID is stamped from the port.
// Delivery is scheduled after serialization + propagation (+jitter), with
// FIFO ordering preserved per (src,dst) LID pair. Packets to unknown LIDs
// — e.g. the wrong-LID timeout experiment — are silently dropped, as a
// real subnet discards them.
//
// Ownership of pkt transfers to the fabric: after final delivery (the
// receiving handler's return) or drop, the packet goes back to the pool.
// Packets built outside the pool are absorbed into it.
func (p *Port) Send(pkt *packet.Packet) {
	f := p.fab
	pkt.SLID = p.LID
	ws := uint64(pkt.WireSize())
	f.Sent++
	f.BytesSent += ws
	p.TxPackets++
	p.TxBytes += ws

	var dst *Port
	if int(pkt.DLID) < len(f.ports) {
		dst = f.ports[pkt.DLID]
	}
	drop := dst == nil
	reason := ""
	reasonCtr := &f.DropsUnroutable
	if drop {
		reason = "unknown DLID"
	}
	if !drop && f.dropFilter != nil && f.dropFilter(pkt) {
		drop, reason, reasonCtr = true, "drop filter", &f.DropsFilter
	}
	if !drop && f.lossRate > 0 && f.eng.Bernoulli(f.lossRate) {
		drop, reason, reasonCtr = true, "random loss", &f.DropsLoss
	}

	if len(f.taps) > 0 {
		dstName := ""
		if dst != nil {
			dstName = dst.Name
		}
		f.emitTap(TapEvent{At: f.eng.Now(), Pkt: pkt, SrcName: p.Name, DstName: dstName, Dropped: drop, Reason: reason})
	}
	if drop {
		f.Dropped++
		*reasonCtr++
		p.TxDiscards++
		f.pool.Put(pkt)
		return
	}

	if f.net != nil {
		// Switched egress: the network models serialization, queueing,
		// PFC and ECN; the fabric resumes at the far edge through
		// deliverFromNet / dropFromNet.
		f.net.Send(p.LID, pkt.DLID, pkt, int(ws))
		return
	}

	at := f.eng.Now() + f.serialization(int(ws)) + f.eng.Jitter(f.cfg.PropDelay, f.cfg.DelayJitter)
	d := f.getDelivery()
	d.dst, d.pkt, d.ws = dst, pkt, ws
	f.scheduleDelivery(p.lineTo(pkt.DLID), d, at)
}
