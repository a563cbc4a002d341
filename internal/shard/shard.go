// Package shard is the conservative bounded-lag parallel layer: it runs
// one simulation as a Group of causal domains, each with its own
// sim.Engine, and executes the domains' event loops concurrently on a
// fixed pool of worker lanes without ever reordering an observable
// event.
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
// Cross-domain traffic moves as Flight values over boundary Links.
// Execution proceeds in epochs: at each barrier the coordinator flips
// every link's double buffer (flights emitted during the previous window
// become visible to their destination), picks the global next event time
// T, and releases every domain to drain its inbound flights and run
// RunHorizon(T + lookahead) in parallel. Lookahead is the minimum
// boundary-link propagation delay: a flight emitted at or after T lands
// at or after T + lookahead, so no domain can be surprised inside its
// window — the classic conservative bounded-lag guarantee (Lubachevsky).
//
// Determinism across lane counts holds because the only cross-domain
// interaction is the barrier-ordered flight exchange: each domain drains
// its inbound links in declaration order, merge-sorts the landed flights
// by (At, source domain, source ReserveSeq), and schedules them in that
// total order. Nothing a worker lane does can change what any domain
// observes.
package shard

import (
	"fmt"
	"runtime"
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
	// Seq is the source engine's ReserveSeq claim, the tie-break that
	// makes the destination's merge order identical to a single-engine
	// interleaving of the same sends.
	Seq uint64
	// From is the source domain's index, stamped by Send: the middle
	// component of the (At, From, Seq) merge key.
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
// followed by a fixed propagation delay. Flights are double-buffered:
// the source appends to pending during its window, the coordinator flips
// pending into ready at the epoch barrier, and the destination drains
// ready at the start of its next window — so producer and consumer never
// touch the same slice concurrently, with the pool barrier providing the
// happens-before edge. Both buffers recycle their backing arrays.
type Link struct {
	src, dst  *Domain
	nsPerByte float64
	prop      sim.Time
	free      sim.Time // egress serialization cursor, in src time
	pending   []Flight // written by src during its window
	ready     []Flight // read by dst at its next drain
}

// Send stamps f's landing time and merge tie-break and queues it on the
// link. It must be called from within the source domain's window (its
// engine's event context). The landing time is
// max(now, egress free) + Len/rate + prop ≥ now + prop, which is what
// the group's lookahead guarantee rests on.
func (l *Link) Send(f Flight) {
	eng := l.src.Eng
	start := eng.Now()
	if l.free > start {
		start = l.free
	}
	l.free = start + sim.Time(float64(f.Len)*l.nsPerByte)
	f.At = l.free + l.prop
	f.Seq = eng.ReserveSeq()
	f.From = l.src.id
	l.pending = append(l.pending, f)
}

// Domain is one causal partition: an engine plus its inbound boundary
// links. The owner builds whatever system it likes on Eng (clusters,
// fabrics, processes); the domain only adds the flight drain.
type Domain struct {
	Eng *sim.Engine

	id      int
	in      []*Link // inbound links in Connect order (fixes drain order)
	handler func(Flight)
	// inbox holds drained flights whose landing events are scheduled
	// but not yet fired, kept sorted by (At, From, Seq) from inboxHead
	// on; landFn pops the head. One landing event is scheduled per
	// flight, and events fire in time order, so by the time an event at
	// time t fires every flight ordered before the head has already
	// been popped and the head's At is exactly t — even when a later
	// epoch's drain merges in flights that land before a previous
	// epoch's beyond-horizon leftovers.
	inbox     []Flight
	inboxHead int
	merge     []Flight // drain sort scratch, recycled
	landFn    func()   // cached: one closure per domain, not per flight
}

// ID returns the domain's index in its group (also the From stamp on
// flights it sends).
func (d *Domain) ID() int { return d.id }

// OnFlight installs the handler invoked at each inbound flight's landing
// time, inside the domain's event loop. A domain with inbound links must
// install a handler before the group runs.
func (d *Domain) OnFlight(h func(Flight)) { d.handler = h }

// flightAfter reports whether a orders after b in the (At, From, Seq)
// total order — the group's canonical cross-domain delivery order.
func flightAfter(a, b Flight) bool {
	if a.At != b.At {
		return a.At > b.At
	}
	if a.From != b.From {
		return a.From > b.From
	}
	return a.Seq > b.Seq
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

// drain moves every ready inbound flight into the engine as a landing
// event. Flights are merged across links and sorted by
// (At, From, Seq) — a total order, since Seq is unique per source — with
// an insertion sort: each link's ready slice is already sorted (egress
// cursors are monotone), so the merge is nearly ordered and the sort is
// cheap and allocation-free. The sorted batch is then merged into the
// inbox's un-popped tail rather than appended: a previous epoch can
// leave flights whose At lies beyond its horizon (heterogeneous link
// props, a congested egress cursor), and a later batch may land before
// them — a plain append would let their landing events pop the wrong
// flight.
func (d *Domain) drain() {
	d.merge = d.merge[:0]
	for _, l := range d.in {
		d.merge = append(d.merge, l.ready...)
	}
	if len(d.merge) == 0 {
		return
	}
	m := d.merge
	for i := 1; i < len(m); i++ {
		f := m[i]
		j := i - 1
		for j >= 0 && flightAfter(m[j], f) {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = f
	}
	// Compact the consumed prefix so an inbox that never fully empties
	// cannot grow without bound across epochs.
	if d.inboxHead > 0 {
		n := copy(d.inbox, d.inbox[d.inboxHead:])
		d.inbox = d.inbox[:n]
		d.inboxHead = 0
	}
	// Back-to-front merge of the two sorted runs (leftover tail and new
	// batch): O(n+m), allocation-free once the backing array is warm.
	// Reads of the batch come from m, so overwriting the appended copy
	// region is safe.
	old := len(d.inbox)
	d.inbox = append(d.inbox, m...)
	i, j, k := old-1, len(m)-1, len(d.inbox)-1
	for j >= 0 {
		if i >= 0 && flightAfter(d.inbox[i], m[j]) {
			d.inbox[k] = d.inbox[i]
			i--
		} else {
			d.inbox[k] = m[j]
			j--
		}
		k--
	}
	for _, f := range m {
		d.Eng.Schedule(f.At, d.landFn)
	}
}

// Group runs a set of domains to completion over a fixed number of
// worker lanes. Domains and links are added before Run; the group is
// single-use per run but domains' engines may be Reset and the group
// rebuilt, arena-style, by the caller.
type Group struct {
	lanes     int
	domains   []*Domain
	links     []*Link
	lookahead sim.Time

	jobs   chan *Domain
	wg     sync.WaitGroup
	fn     func(*Domain)
	panicV any
	once   sync.Once

	// horizon is the current epoch's window end, written in the barrier
	// section and read by epochRun on the lanes (the job channel's
	// happens-before edge covers it). Keeping it a field lets every epoch
	// share one cached epochFn instead of allocating a fresh closure.
	horizon sim.Time
	epochFn func(*Domain)
}

// NewGroup creates a group executing on lanes worker lanes. Values below
// 1 auto-tune to the process's GOMAXPROCS (startWorkers further caps at
// the domain count, so small fabrics never spawn idle lanes); the lane
// count never affects simulation output, only wall-clock.
func NewGroup(lanes int) *Group {
	if lanes < 1 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &Group{lanes: lanes}
}

// Lanes returns the worker-lane count the group executes on.
func (g *Group) Lanes() int { return g.lanes }

// AddDomain wraps eng as the group's next causal domain.
func (g *Group) AddDomain(eng *sim.Engine) *Domain {
	d := &Domain{Eng: eng, id: len(g.domains)}
	d.landFn = d.land
	g.domains = append(g.domains, d)
	return d
}

// Connect creates a directed boundary link from src to dst with the
// given serialization rate (gbps ≤ 0 means latency-only) and propagation
// delay. The propagation delay must be positive: it is what bounds the
// group's lookahead, and a zero-latency boundary would force lockstep.
func (g *Group) Connect(src, dst *Domain, gbps float64, prop sim.Time) *Link {
	if src == dst {
		panic("shard: a boundary link must cross domains")
	}
	if prop <= 0 {
		panic("shard: boundary links need a positive propagation delay (it bounds the lookahead)")
	}
	l := &Link{src: src, dst: dst, prop: prop}
	if gbps > 0 {
		l.nsPerByte = 8 / gbps
	}
	dst.in = append(dst.in, l)
	g.links = append(g.links, l)
	if g.lookahead == 0 || prop < g.lookahead {
		g.lookahead = prop
	}
	return l
}

// Run executes every domain to completion. Without boundary links the
// domains are independent and each engine simply runs dry on its lane.
// With links, execution is the bounded-lag epoch loop described in the
// package comment; Run returns when no domain has a scheduled event and
// no flight is in transit.
func (g *Group) Run() {
	stop := g.startWorkers()
	defer stop()
	if len(g.links) == 0 {
		g.runEach(runDry)
		return
	}
	if g.epochFn == nil {
		g.epochFn = g.epochRun
	}
	for _, d := range g.domains {
		if len(d.in) > 0 && d.handler == nil {
			panic(fmt.Sprintf("shard: domain %d has inbound links but no OnFlight handler", d.id))
		}
	}
	const inf = sim.Time(1<<63 - 1)
	for {
		// Barrier section: all lanes idle, so flipping the double buffers
		// and reading every engine's next event time is race-free.
		t := inf
		for _, l := range g.links {
			l.ready, l.pending = l.pending, l.ready[:0]
			for i := range l.ready {
				if l.ready[i].At < t {
					t = l.ready[i].At
				}
			}
		}
		for _, d := range g.domains {
			if nt, ok := d.Eng.NextEventTime(); ok && nt < t {
				t = nt
			}
		}
		if t == inf {
			return
		}
		g.horizon = t + g.lookahead
		g.runEach(g.epochFn)
		// RunHorizon clears the stopped flag on entry, so a Stop issued
		// inside a window only survives until the next epoch; honour it
		// here so Stop ends the group run, mirroring Engine.Run.
		for _, d := range g.domains {
			if d.Eng.Stopped() {
				return
			}
		}
	}
}

// epochRun is one domain's share of an epoch: land the flights the
// barrier made visible, then execute the window.
func (g *Group) epochRun(d *Domain) {
	d.drain()
	d.Eng.RunHorizon(g.horizon)
}

// MustRun is Run plus the engine layer's deadlock check: it panics if
// any domain ends with processes parked forever, mirroring
// sim.Engine.MustRun for the whole group.
func (g *Group) MustRun() {
	g.Run()
	for _, d := range g.domains {
		if d.Eng.Deadlocked() {
			panic(fmt.Sprintf("shard: deadlock, domain %d has process(es) parked forever at %v", d.id, d.Eng.Now()))
		}
	}
}

// Rewind returns the group to its pre-run state — link egress cursors
// and flight buffers cleared, inboxes emptied — keeping every
// allocation, so a caller that Resets its engines can rerun the same
// group arena-style without per-trial garbage. Installed handlers stay.
func (g *Group) Rewind() {
	for _, l := range g.links {
		l.free = 0
		l.pending = l.pending[:0]
		l.ready = l.ready[:0]
	}
	for _, d := range g.domains {
		d.inbox = d.inbox[:0]
		d.inboxHead = 0
		d.merge = d.merge[:0]
	}
	// Clear captured panic state: a re-raised lane panic from a prior
	// run must not mask a rerun's own failure (the Once is consumed).
	g.panicV = nil
	g.once = sync.Once{}
}

// startWorkers launches the persistent lane goroutines (none when one
// lane or one domain suffices — then runEach executes inline, which is
// also the allocation-free path the alloc budget pins). The returned
// stop function tears the pool down.
func (g *Group) startWorkers() func() {
	if g.lanes <= 1 || len(g.domains) <= 1 {
		return func() {}
	}
	n := g.lanes
	if n > len(g.domains) {
		n = len(g.domains)
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

// runDry is the link-free phase function: each independent domain's
// engine simply runs to completion on its lane.
func runDry(d *Domain) { d.Eng.Run() }

// runOne executes the current phase function on one domain, capturing
// the first panic so the coordinator can re-raise it after the barrier
// (a lost panic in a lane goroutine would otherwise kill the process
// with no caller context).
func (g *Group) runOne(d *Domain) {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.once.Do(func() { g.panicV = r })
		}
	}()
	g.fn(d)
}

// runEach runs fn over every domain, on the lane pool when one exists.
func (g *Group) runEach(fn func(*Domain)) {
	if g.jobs == nil {
		for _, d := range g.domains {
			fn(d)
		}
		return
	}
	g.fn = fn
	g.wg.Add(len(g.domains))
	for _, d := range g.domains {
		g.jobs <- d
	}
	g.wg.Wait()
	if g.panicV != nil {
		panic(g.panicV)
	}
}
