// Package shard is the conservative parallel layer: it runs one
// simulation as a Group of causal domains and executes the domains'
// event loops concurrently on a fixed pool of worker lanes without ever
// reordering an observable event.
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
// The lanes own the engines. A domain is a seed and two callbacks: when
// its wave starts, the group resets its lane's engine to the domain's
// seed and calls build, which puts the domain's system on it. The group
// then lands the inbound flights, runs the engine dry, checks the
// domain's Stop (and, under MustRun, its deadlock) and calls done,
// which copies out what the caller reads afterwards. Then the engine
// goes to the lane's next domain, recycling its arenas and pools the way
// a trial loop does (a Reset engine behaves exactly like a fresh one).
// A group keeps at most one engine per lane, however many domains it
// has, and keeps them across runs.
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
// array across runs.
type Link struct {
	src, dst  *Domain
	nsPerByte float64
	prop      sim.Time
	free      sim.Time // egress serialization cursor, in src time
	flights   []Flight // sent by src, drained by dst when its wave starts
}

// Send stamps f's landing time and tie-break and queues it on the
// link. It must be called while the source domain holds its lane
// engine: from its build callback or its engine's events. The landing
// time is max(now, egress free) + Len/rate + prop ≥ now + prop.
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

// Domain is one causal partition: a seed, the callbacks that build and
// summarize its system, and its inbound boundary links. The owner
// builds whatever system it likes on Eng (clusters, fabrics, processes);
// the domain only adds the flight drain.
type Domain struct {
	// Eng is the lane engine the domain runs on, reset to its seed: set
	// when build is called, nil again once done returns. Nothing the
	// system took from it stays valid after done, since the lane's next
	// domain resets the engine and recycles its arenas.
	Eng *sim.Engine

	id          int
	seed        int64
	build, done func(*Domain)
	stopped     bool    // the engine called Stop in the domain's last run
	in          []*Link // inbound links in Connect order (fixes drain order)
	handler     func(Flight)
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
// install a handler before the group runs or from its build callback.
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
// the flights are gathered across links into the emptied inbox (a run
// ended by Stop or a panic can leave flights in it), sorted by
// (At, From, Seq) in place, and scheduled. A domain drains once per Run,
// when its wave starts and every source has run dry, after its build.
func (d *Domain) drain() {
	d.inbox, d.inboxHead = d.inbox[:0], 0
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
// worker lanes. Domains and links are added before Run. A group may run
// again: each Run starts from empty links and rebuilds every domain on
// the lane engines the previous run left, so a warm rerun allocates
// only what its build callbacks do.
type Group struct {
	lanes   int
	domains []*Domain
	links   []*Link

	// The wave schedule, derived from the link graph by plan and kept
	// until the next AddDomain or Connect, so a rerun plans nothing.
	// waves[k] lists wave k's domains in id order.
	planned bool
	waves   [][]*Domain
	width   int // the most domains one wave runs at once
	// ranWaves counts the last Run's waves.
	ranWaves int

	// engs[i] is lane i's engine, nil until the lane's first domain
	// (or after a domain on it panicked). Only lane i touches it while
	// a run is on.
	engs []*sim.Engine
	// must makes the running Run check each domain for a deadlock.
	must bool

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

// AddDomain adds the group's next causal domain. When its wave starts,
// the domain gets its lane's engine reset to seed, and build puts its
// system on d.Eng: the domain's initial events, its handler if it has
// inbound links, any flights it sends at time zero. Once the engine has
// run dry, done (which may be nil) copies out what the caller reads
// after the run; the engine then passes to the lane's next domain.
func (g *Group) AddDomain(seed int64, build, done func(d *Domain)) *Domain {
	if len(g.domains) == maxDomains {
		panic(fmt.Sprintf("shard: a group holds at most %d domains", maxDomains))
	}
	d := &Domain{id: len(g.domains), seed: seed, build: build, done: done}
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
// Stop. Processes still parked in a domain when it ends are unwound
// (sim.Engine.Shutdown) before its lane engine moves on.
func (g *Group) Run() { g.run(false) }

// MustRun is Run plus the engine layer's deadlock check: it panics if a
// domain ends with processes or Notify callbacks parked forever,
// mirroring sim.Engine.MustRun for the whole group. The check runs on
// the domain's lane as soon as its engine has run dry, before done.
func (g *Group) MustRun() { g.run(true) }

func (g *Group) run(must bool) {
	g.plan()
	// Start from empty links: a run ended by Stop leaves flights on the
	// links it never drained.
	for _, l := range g.links {
		l.free = 0
		l.flights = l.flights[:0]
	}
	// A re-raised lane panic from a prior run must not mask this run's
	// own outcome (the Once is consumed).
	g.panicV = nil
	g.once = sync.Once{}
	g.must = must
	g.ranWaves = 0
	lanes := min(g.lanes, g.width)
	for len(g.engs) < lanes {
		g.engs = append(g.engs, nil)
	}
	stop := g.startWorkers(lanes)
	defer stop()
	for _, w := range g.waves {
		g.runEach(w)
		g.ranWaves++
		for _, d := range w {
			if d.stopped {
				return
			}
		}
	}
}

// runDomain is one domain's share of a wave, on lane's engine. Every
// domain upstream of it has run dry, so its inbound links hold every
// flight it will ever receive: build the domain, land them all, run the
// engine dry, check it and summarize it.
func (g *Group) runDomain(lane int, d *Domain) {
	e := g.engs[lane]
	g.engs[lane] = nil // a domain that panics takes its engine with it
	if e == nil {
		e = sim.New(d.seed)
	} else {
		e.Reset(d.seed)
	}
	d.Eng = e
	if d.build != nil {
		d.build(d)
	}
	if len(d.in) > 0 && d.handler == nil {
		panic(fmt.Sprintf("shard: domain %d has inbound links but no OnFlight handler", d.id))
	}
	d.drain()
	e.Run()
	if g.must && e.Deadlocked() {
		panic(fmt.Sprintf("shard: deadlock, domain %d has process(es) or callback(s) parked forever at %v", d.id, e.Now()))
	}
	d.stopped = e.Stopped()
	if d.done != nil {
		d.done(d)
	}
	d.Eng = nil
	e.Shutdown() // unwind processes a Stop or a deadlock left parked
	g.engs[lane] = e
}

// startWorkers launches one persistent goroutine per lane, each running
// its domains on its own engine (none when one lane suffices — then
// runEach executes inline on lane 0, which is also the allocation-free
// path the alloc budgets pin). The returned stop function tears the
// pool down.
func (g *Group) startWorkers(lanes int) func() {
	if lanes <= 1 {
		return func() {}
	}
	jobs := make(chan *Domain)
	g.jobs = jobs
	for i := 0; i < lanes; i++ {
		go func() {
			for d := range jobs {
				g.runOne(i, d)
			}
		}()
	}
	return func() { g.jobs = nil; close(jobs) }
}

// runOne runs one domain's share of a wave on lane, capturing the first
// panic so the coordinator can re-raise it after the barrier (a lost
// panic in a lane goroutine would otherwise kill the process with no
// caller context).
func (g *Group) runOne(lane int, d *Domain) {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.once.Do(func() { g.panicV = r })
		}
	}()
	g.runDomain(lane, d)
}

// runEach runs one wave's domains, on the lane pool when one exists.
func (g *Group) runEach(ds []*Domain) {
	if g.jobs == nil {
		for _, d := range ds {
			g.runDomain(0, d)
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
