// Package shard is the conservative parallel layer: it runs one
// simulation as a Group of causal domains, each with its own sim.Engine,
// and executes the domains' event loops concurrently on a fixed pool of
// worker lanes without ever reordering an observable event.
//
// The unit of partitioning is the causal domain — a subgraph of the
// simulated system (hosts, RNICs, ODP/NPR state, the switches between
// them) whose packet exchanges never leave the subgraph except over
// declared boundary links. Which vertices form a domain is derived from
// the traffic structure (see Decompose), never from the worker-lane
// count, so the partition — and therefore every event trajectory — is a
// pure function of the scenario. The `shards` knob only picks how many
// OS threads execute the domains: output is byte-identical at any value,
// the same contract internal/parallel established for sweep points.
//
// Cross-domain traffic moves as Flight values over directed boundary
// Links, and the links form the group's link graph, which must be
// acyclic. Run executes the domains in topological waves: wave 0 is
// every domain without inbound links, wave k every domain whose sources
// all sit in earlier waves. Each domain of a wave lands every flight it
// will ever receive and runs its engine dry; the domains of one wave run
// concurrently on the lanes. A source domain's flights stay buffered on
// their links until its wave ends. Domains never wait on each other
// inside a wave, so each engine's heap, RNICs and switches stay hot in
// cache for its whole run. A link graph with a cycle is a construction
// error: Run panics before any engine runs.
//
// Determinism across lane counts holds because a landing's place in its
// destination's event order is fixed when it is sent, not when it is
// drained. Each domain sorts its landed flights by (At, source domain,
// source ReserveSeq) and schedules each at its At with a sequence number
// from a reserved band derived from (From, Seq): the band's top bit
// orders a landing after every local event at the same instant, and
// (From, Seq) orders landings among themselves. Nothing a worker lane
// does can change what any domain observes.
package shard

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"odpsim/internal/sim"
)

// Flight is one cross-domain handoff: a fixed-size value (no pointers),
// so rings of flights recycle without per-packet garbage. The layer
// treats Src/Dst/Op/Arg as opaque application addressing; At and From
// are stamped by Link.Send.
type Flight struct {
	// At is the landing time at the destination domain, stamped by Send
	// from the link's serialization cursor plus propagation delay.
	At sim.Time
	// Seq is the source engine's ReserveSeq claim, the tie-break among
	// flights from one source landing at the same instant.
	Seq uint64
	// From is the source domain's index, stamped by Send: the middle
	// component of the (At, From, Seq) landing order.
	From int
	// Src and Dst are application-level endpoints (LIDs, pod indices).
	Src, Dst uint16
	// Op is an application-defined discriminator.
	Op uint8
	// Len is the payload size in bytes; it drives link serialization.
	Len int
	// Arg is one application payload word (a digest count, a key).
	Arg uint64
}

// Link is a directed boundary link between two domains: a serializing
// egress (one flight on the wire at a time at the configured rate)
// followed by a fixed propagation delay. The source appends to flights
// while its wave runs and the destination drains them when its own wave
// starts, so the two never touch the slice concurrently: the wave
// barrier is the happens-before edge. The slice recycles its backing
// array.
type Link struct {
	src, dst  *Domain
	nsPerByte float64
	prop      sim.Time
	free      sim.Time // egress serialization cursor, in src time
	flights   []Flight // sent by src, drained by dst when its wave starts
}

// Send stamps f's landing time and tie-break and queues it on the
// link. It must be called while the source domain runs (its engine's
// event context) or before the group runs. The landing time is
// max(now, egress free) + Len/rate + prop ≥ now + prop.
func (l *Link) Send(f Flight) {
	eng := l.src.Eng
	start := eng.Now()
	if l.free > start {
		start = l.free
	}
	l.free = start + sim.Time(float64(f.Len)*l.nsPerByte)
	f.At = l.free + l.prop
	f.Seq = eng.ReserveSeq()
	if f.Seq >= 1<<fromShift {
		panic("shard: source engine sequence outgrew the landing tie-break band")
	}
	f.From = l.src.id
	l.flights = append(l.flights, f)
}

// A landing is scheduled at its At with the sequence number
// landBand | From<<fromShift | Seq. Local sequence numbers never reach
// the band's top bit, so a landing orders after every local event at
// the same instant, and the (From, Seq) tail orders landings among
// themselves exactly as the drain's sort does. The key is fixed at Send,
// so a landing fires after a same-instant local event even when that
// event is scheduled after the drain.
const (
	landBand   = uint64(1) << 63
	fromShift  = 47
	maxDomains = 1 << (63 - fromShift)
)

// landSeq is f's landing tie-break in its destination engine.
func landSeq(f Flight) uint64 { return landBand | uint64(f.From)<<fromShift | f.Seq }

// Domain is one causal partition: an engine plus its inbound boundary
// links. The owner builds whatever system it likes on Eng (clusters,
// fabrics, processes); the domain only adds the flight drain.
type Domain struct {
	Eng *sim.Engine

	id      int
	in      []*Link // inbound links in Connect order (fixes drain order)
	handler func(Flight)
	// inbox holds drained flights whose landing events are scheduled
	// but not yet fired, sorted by (At, From, Seq) from inboxHead on;
	// landFn pops the head. One landing event is scheduled per flight,
	// and landing events fire in (At, From, Seq) order (landSeq), so the
	// firing event's flight is always the head.
	inbox     []Flight
	inboxHead int
	landFn    func() // cached: one closure per domain, not per flight
}

// ID returns the domain's index in its group (also the From stamp on
// flights it sends).
func (d *Domain) ID() int { return d.id }

// OnFlight installs the handler invoked at each inbound flight's landing
// time, inside the domain's event loop. A domain with inbound links must
// install a handler before the group runs.
func (d *Domain) OnFlight(h func(Flight)) { d.handler = h }

// compareFlights orders flights by (At, From, Seq), the group's
// canonical cross-domain delivery order; it is total, since Seq is
// unique per source.
func compareFlights(a, b Flight) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// land pops the inbox head — the minimal un-popped flight, which is the
// one whose landing event is firing — and hands it to the handler.
func (d *Domain) land() {
	f := d.inbox[d.inboxHead]
	d.inboxHead++
	if d.inboxHead == len(d.inbox) {
		d.inbox = d.inbox[:0]
		d.inboxHead = 0
	}
	d.handler(f)
}

// drain lands every inbound flight in the engine as a landing event:
// the flights are gathered across links into the empty inbox, sorted by
// (At, From, Seq) in place, and scheduled. A domain drains once per Run,
// when its wave starts and every source has run dry.
func (d *Domain) drain() {
	for _, l := range d.in {
		d.inbox = append(d.inbox, l.flights...)
		l.flights = l.flights[:0]
	}
	slices.SortFunc(d.inbox, compareFlights)
	for _, f := range d.inbox {
		d.Eng.ScheduleSeq(f.At, landSeq(f), d.landFn)
	}
}

// Group runs a set of domains to completion over a fixed number of
// worker lanes. Domains and links are added before Run; the group is
// single-use per run but domains' engines may be Reset and the group
// rewound, arena-style, by the caller.
type Group struct {
	lanes   int
	domains []*Domain
	links   []*Link

	// The wave schedule, derived from the link graph by plan and kept
	// until the next AddDomain or Connect (Rewind keeps it too, so a warm
	// rerun plans nothing). waves[k] lists wave k's domains in id order.
	planned bool
	waves   [][]*Domain
	width   int // the most domains one wave runs at once
	// ranWaves counts the last Run's waves.
	ranWaves int

	jobs   chan *Domain
	wg     sync.WaitGroup
	panicV any
	once   sync.Once
}

// NewGroup creates a group executing on lanes worker lanes. Values below
// 1 auto-tune to the process's GOMAXPROCS (startWorkers further caps at
// the widest wave, so small fabrics never spawn idle lanes); the lane
// count never affects simulation output, only wall-clock.
func NewGroup(lanes int) *Group {
	if lanes < 1 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &Group{lanes: lanes}
}

// AddDomain wraps eng as the group's next causal domain.
func (g *Group) AddDomain(eng *sim.Engine) *Domain {
	if len(g.domains) == maxDomains {
		panic(fmt.Sprintf("shard: a group holds at most %d domains", maxDomains))
	}
	d := &Domain{Eng: eng, id: len(g.domains)}
	d.landFn = d.land
	g.domains = append(g.domains, d)
	g.planned = false
	return d
}

// Connect creates a directed boundary link from src to dst with the
// given serialization rate (gbps ≤ 0 means latency-only) and propagation
// delay. The propagation delay must be positive: a boundary link stands
// for a wire, so a flight always lands strictly after it is sent.
func (g *Group) Connect(src, dst *Domain, gbps float64, prop sim.Time) *Link {
	if src == dst {
		panic("shard: a boundary link must cross domains")
	}
	if prop <= 0 {
		panic("shard: boundary links need a positive propagation delay")
	}
	l := &Link{src: src, dst: dst, prop: prop}
	if gbps > 0 {
		l.nsPerByte = 8 / gbps
	}
	dst.in = append(dst.in, l)
	g.links = append(g.links, l)
	g.planned = false
	return l
}

// plan derives the wave schedule from the link graph (Kahn's algorithm):
// a domain's wave is one past the latest wave among its sources, so
// every flight a domain receives was sent in an earlier wave. A domain
// left with unresolved inbound links sits on or behind a cycle, and plan
// panics naming a domain on the cycle.
func (g *Group) plan() {
	if g.planned {
		return
	}
	n := len(g.domains)
	wave := make([]int, n)
	indeg := make([]int, n)
	out := make([][]*Domain, n)
	for _, l := range g.links {
		indeg[l.dst.id]++
		out[l.src.id] = append(out[l.src.id], l.dst)
	}
	ready := make([]*Domain, 0, n)
	for _, d := range g.domains {
		if indeg[d.id] == 0 {
			ready = append(ready, d)
		}
	}
	last := 0
	for i := 0; i < len(ready); i++ {
		src := ready[i]
		for _, dst := range out[src.id] {
			wave[dst.id] = max(wave[dst.id], wave[src.id]+1)
			if indeg[dst.id]--; indeg[dst.id] == 0 {
				ready = append(ready, dst)
				last = max(last, wave[dst.id])
			}
		}
	}
	if len(ready) < n {
		// Every unresolved domain has an unresolved source, so walking
		// n steps upstream from one ends on the cycle.
		d := g.domains[slices.IndexFunc(indeg, func(k int) bool { return k > 0 })]
		for range n {
			for _, l := range d.in {
				if indeg[l.src.id] > 0 {
					d = l.src
					break
				}
			}
		}
		panic(fmt.Sprintf("shard: link graph has a cycle through domain %d", d.id))
	}
	g.waves = make([][]*Domain, last+1)
	for _, d := range g.domains {
		g.waves[wave[d.id]] = append(g.waves[wave[d.id]], d)
	}
	g.width = 0
	for _, w := range g.waves {
		g.width = max(g.width, len(w))
	}
	g.planned = true
}

// Run executes every domain to completion in topological waves of the
// link graph, as described in the package comment; it panics before any
// engine runs if the graph has a cycle. Run returns when every domain
// has run dry, or after the wave in which some domain's engine called
// Stop.
func (g *Group) Run() {
	g.plan()
	for _, d := range g.domains {
		if len(d.in) > 0 && d.handler == nil {
			panic(fmt.Sprintf("shard: domain %d has inbound links but no OnFlight handler", d.id))
		}
	}
	g.ranWaves = 0
	stop := g.startWorkers(g.width)
	defer stop()
	for _, w := range g.waves {
		g.runEach(w)
		g.ranWaves++
		for _, d := range w {
			if d.Eng.Stopped() {
				return
			}
		}
	}
}

// waveRun is one domain's share of a wave. Every domain upstream of it
// has run dry, so its inbound links hold every flight it will ever
// receive: land them all, then run the engine dry.
func waveRun(d *Domain) {
	d.drain()
	d.Eng.Run()
}

// MustRun is Run plus the engine layer's deadlock check: it panics if
// any domain ends with processes or Notify callbacks parked forever,
// mirroring sim.Engine.MustRun for the whole group.
func (g *Group) MustRun() {
	g.Run()
	for _, d := range g.domains {
		if d.Eng.Deadlocked() {
			panic(fmt.Sprintf("shard: deadlock, domain %d has process(es) or callback(s) parked forever at %v", d.id, d.Eng.Now()))
		}
	}
}

// Rewind returns the group to its pre-run state — link egress cursors
// and flights cleared, inboxes emptied — keeping every allocation and
// the wave schedule, so a caller that Resets its engines can rerun the
// same group arena-style without per-trial garbage. Installed handlers
// stay.
func (g *Group) Rewind() {
	for _, l := range g.links {
		l.free = 0
		l.flights = l.flights[:0]
	}
	for _, d := range g.domains {
		d.inbox = d.inbox[:0]
		d.inboxHead = 0
	}
	// Clear captured panic state: a re-raised lane panic from a prior
	// run must not mask a rerun's own failure (the Once is consumed).
	g.panicV = nil
	g.once = sync.Once{}
}

// startWorkers launches the persistent lane goroutines for waves that
// run at most width domains at once (none when one lane or one domain
// suffices — then runEach executes inline, which is also the
// allocation-free path the alloc budget pins). The returned stop
// function tears the pool down.
func (g *Group) startWorkers(width int) func() {
	n := min(g.lanes, width)
	if n <= 1 {
		return func() {}
	}
	jobs := make(chan *Domain)
	g.jobs = jobs
	for i := 0; i < n; i++ {
		go func() {
			for d := range jobs {
				g.runOne(d)
			}
		}()
	}
	return func() { g.jobs = nil; close(jobs) }
}

// runOne runs one domain's share of a wave, capturing the first panic
// so the coordinator can re-raise it after the barrier (a lost panic in
// a lane goroutine would otherwise kill the process with no caller
// context).
func (g *Group) runOne(d *Domain) {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.once.Do(func() { g.panicV = r })
		}
	}()
	waveRun(d)
}

// runEach runs one wave's domains, on the lane pool when one exists.
func (g *Group) runEach(ds []*Domain) {
	if g.jobs == nil {
		for _, d := range ds {
			waveRun(d)
		}
		return
	}
	g.wg.Add(len(ds))
	for _, d := range ds {
		g.jobs <- d
	}
	g.wg.Wait()
	if g.panicV != nil {
		panic(g.panicV)
	}
}
