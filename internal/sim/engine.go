package sim

import (
	"fmt"
	"math/rand"
)

// event is a tracked (cancellable) scheduled callback. Events at the same
// instant fire in the order they were scheduled (seq breaks ties), which
// keeps runs deterministic. Events are carved from the engine's event
// blocks and recycled through its free list when they fire or are
// cancelled; gen increments on every recycle so stale Timer handles
// become inert instead of acting on the event's next life. The Firer
// is two words, so an event is 48 bytes, one size class
// (TestEventSizeClass).
type event struct {
	at    Time
	seq   uint64
	fire  Firer
	gen   uint64
	index int // position in the timer heap, -1 when popped
}

// Firer is what a tracked event runs: a record whose Fire method is the
// callback. A holder that arms the same timer over and over (a QP's
// Local ACK Timeout) passes a pointer to itself under a named type whose
// Fire is that timer's callback, so arming it binds no method value and
// allocates nothing (see AtFire).
type Firer interface{ Fire() }

// fireFunc is a func() callback as a Firer (At, After). A func value is
// one pointer, so converting it to the interface does not allocate.
type fireFunc func()

func (f fireFunc) Fire() { f() }

// eventBlock caps a block of fresh events at 170: 8,160 bytes, which
// fills one 8 KiB size class.
const eventBlock = 170

// The engine keeps two binary min-heaps over the same (at, seq) key,
// split by event lifetime. Lite callbacks (Schedule, ScheduleSeq) are the
// per-packet traffic: microseconds ahead, never cancelled, pushed and
// popped millions of times. Tracked timers (At, After) are mostly
// retransmit timeouts armed milliseconds ahead and cancelled on the next
// ACK; hundreds sit pending at once. Kept apart, a lite sift is only as
// deep as the handful of pending lite slots, never moves a timer (whose
// moves write ev.index into scattered event structs), and tests no
// ev != nil.
//
// Sequence numbers come from one counter shared by At, Schedule and
// ReserveSeq, so (at, seq) is a total order over both heaps, and Step
// popping whichever head is smaller reproduces the single heap's pop
// order exactly. The key is stored by value in each slot, so sift
// comparisons stay inside the heap's backing array. The heaps are
// hand-rolled rather than container/heap (interface-dispatched Less/Swap
// dominated the congested-datapath profile). A 4-ary variant was
// measured ~10% slower here: the min-of-four child scan mispredicts more
// than the halved depth saves.

// liteItem is one lite-heap slot: a fire-and-forget callback.
type liteItem struct {
	at  Time
	seq uint64
	fn  func()
}

// timerItem is one timer-heap slot; ev.index tracks the slot for Cancel.
type timerItem struct {
	at  Time
	seq uint64
	ev  *event
}

// initialHeapCap is each heap's first backing array, allocated on its
// first push: one allocation per heap for a fresh engine instead of seven
// doublings from zero.
const initialHeapCap = 64

// earlier reports whether key (a1, s1) orders before (a2, s2). Testing
// at != first compiles to a faster sift than a1 < a2 || (a1 == a2 && ...).
func earlier(a1 Time, s1 uint64, a2 Time, s2 uint64) bool {
	if a1 != a2 {
		return a1 < a2
	}
	return s1 < s2
}

type liteHeap []liteItem

func (h liteHeap) siftUp(i int) {
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if earlier(p.at, p.seq, item.at, item.seq) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = item
}

func (h liteHeap) siftDown(i int) {
	n := len(h)
	item := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && earlier(h[r].at, h[r].seq, h[child].at, h[child].seq) {
			child = r
		}
		c := h[child]
		if earlier(item.at, item.seq, c.at, c.seq) {
			break
		}
		h[i] = c
		i = child
	}
	h[i] = item
}

type timerHeap []timerItem

func (h timerHeap) siftUp(i int) {
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if earlier(p.at, p.seq, item.at, item.seq) {
			break
		}
		h[i] = p
		p.ev.index = i
		i = parent
	}
	h[i] = item
	item.ev.index = i
}

func (h timerHeap) siftDown(i int) {
	n := len(h)
	item := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && earlier(h[r].at, h[r].seq, h[child].at, h[child].seq) {
			child = r
		}
		c := h[child]
		if earlier(item.at, item.seq, c.at, c.seq) {
			break
		}
		h[i] = c
		c.ev.index = i
		i = child
	}
	h[i] = item
	item.ev.index = i
}

// pushLite adds a lite callback to the lite heap.
func (e *Engine) pushLite(t Time, seq uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if e.lite == nil {
		e.lite = make(liteHeap, 0, initialHeapCap)
	}
	e.lite = append(e.lite, liteItem{at: t, seq: seq, fn: fn})
	e.lite.siftUp(len(e.lite) - 1)
}

// pushTimer adds ev to the timer heap.
func (e *Engine) pushTimer(ev *event) {
	if e.timers == nil {
		e.timers = make(timerHeap, 0, initialHeapCap)
	}
	e.timers = append(e.timers, timerItem{at: ev.at, seq: ev.seq, ev: ev})
	e.timers.siftUp(len(e.timers) - 1)
}

// popLite removes and returns the lite heap's earliest callback. The
// heap must be non-empty.
func (e *Engine) popLite() func() {
	h := e.lite
	fn := h[0].fn
	n := len(h) - 1
	last := h[n]
	h[n] = liteItem{}
	e.lite = h[:n]
	if n > 0 {
		h[0] = last
		e.lite.siftDown(0)
	}
	return fn
}

// removeTimer deletes the event at timer-heap slot i: a pop when i is 0,
// a cancellation otherwise.
func (e *Engine) removeTimer(i int) *event {
	h := e.timers
	n := len(h) - 1
	ev := h[i].ev
	last := h[n]
	h[n] = timerItem{}
	e.timers = h[:n]
	if i < n {
		h[i] = last
		last.ev.index = i
		if p := (i - 1) / 2; i > 0 && earlier(last.at, last.seq, h[p].at, h[p].seq) {
			e.timers.siftUp(i)
		} else {
			e.timers.siftDown(i)
		}
	}
	ev.index = -1
	return ev
}

// Timer is a handle to a scheduled event; it allows cancellation. The
// handle captures the event's generation: once the event fires (and its
// storage is recycled for a later schedule), the handle is inert. Timer
// is a small value — the zero Timer is valid and permanently inert, and
// copies of a handle all refer to the same scheduled callback.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from firing. The event is removed
// from the timer heap immediately and its storage recycled — cancelled
// timers leave no dead entries behind (the RC requester cancels a
// retransmit timer on nearly every ACK, so lazy deletion would carry a
// tail of dead heap entries through timeout-heavy runs). Cancelling an
// already-fired or already-cancelled timer is a no-op. Cancel reports
// whether the callback was still pending.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	t.eng.recycle(t.eng.removeTimer(t.ev.index))
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Engine is the simulation core. It is not safe for concurrent use; the
// process layer (see proc.go) serializes all goroutines onto the engine's
// event loop. Distinct engines are fully independent, so separate trials
// may run on separate engines concurrently (see internal/parallel).
type Engine struct {
	now     Time
	lite    liteHeap      // Schedule/ScheduleSeq callbacks
	timers  timerHeap     // At/After events, cancellable
	free    []*event      // recycled event storage
	events  Blocks[event] // carves the events the free list has not yet seen
	seq     uint64
	src     source     // the random stream; Jitter and Bernoulli draw from it directly
	rng     *rand.Rand // src behind math/rand's API, for Rand, Uniform and Normal
	seed    int64
	fired   uint64
	resets  uint64 // the engine generation Arena reclaims by (see arena.go)
	stopped bool
	// bound is the latest instant Claim may fire a flight in place: the
	// running loop's horizon (Run: any, RunUntil: its t), noClaim outside
	// a loop.
	bound   Time
	procs   int   // live (not finished, not aborted) processes
	live    *Proc // the live processes, linked through Proc.next
	blocked int   // processes currently parked on a Cond or sleep
	parked  int   // callbacks parked on a Cond by Notify
	// aux holds storage attached to the engine that, like the event free
	// list, survives Reset — e.g. the fabric's packet pool, so trial
	// loops that rebuild the fabric per run keep recycling one pool.
	aux map[string]any
}

// New creates an engine whose random stream is seeded with seed. The same
// seed always produces the same simulation.
func New(seed int64) *Engine {
	e := &Engine{seed: seed, bound: noClaim}
	e.events = Blocks[event]{Make: func(n int) []event { return make([]event, n) }, Max: eventBlock}
	e.src.Seed(seed)
	e.rng = rand.New(&e.src)
	return e
}

// noClaim is the loop bound that lets no flight fire in place: every
// event is at or after 0.
const noClaim Time = -1

// forever is Run's loop bound: any flight may fire in place.
const forever Time = 1<<63 - 1

// Reset returns the engine to its just-constructed state with a new seed,
// keeping allocated storage (both heaps' backing arrays and the event
// free list) so repeated trials reuse one engine instead of allocating a
// fresh one per run. A reset engine behaves byte-identically to New(seed).
// Reset panics if live processes remain from an unfinished run; callbacks
// still parked by Cond.Notify hold no goroutine and are simply forgotten
// (their Conds drop them on Cond.Reset).
func (e *Engine) Reset(seed int64) {
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", e.procs))
	}
	for i := range e.timers {
		ev := e.timers[i].ev
		ev.index = -1
		e.recycle(ev)
		e.timers[i] = timerItem{}
	}
	e.timers = e.timers[:0]
	clear(e.lite)
	e.lite = e.lite[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.bound = noClaim
	e.blocked = 0
	e.parked = 0
	e.resets++
	e.rng.Seed(seed)
	e.seed = seed
}

// Aux returns the value attached under key by SetAux, or nil.
func (e *Engine) Aux(key string) any { return e.aux[key] }

// SetAux attaches a value to the engine under key. Aux values survive
// Reset — they are for free-list-style storage meant to be reused across
// runs on one engine. Holders must tolerate carry-over: anything read
// from Aux after a Reset still has its previous run's contents.
func (e *Engine) SetAux(key string, v any) {
	if e.aux == nil {
		e.aux = make(map[string]any)
	}
	e.aux[key] = v
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns how many events have executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Rand exposes the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was created (or last Reset) with.
// Consumers that need seed-derived determinism without consuming the
// random stream — e.g. ECMP flow hashing — key off this value, so a
// Reset engine reproduces New(seed) exactly.
func (e *Engine) Seed() int64 { return e.seed }

// schedule takes an event for f at absolute time t from the free list
// (or the event blocks) and pushes it on the timer heap. Scheduling in
// the past panics: it would silently reorder causality.
func (e *Engine) schedule(t Time, f Firer) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = e.events.New()
	}
	ev.at = t
	ev.seq = e.seq
	ev.fire = f
	e.seq++
	e.pushTimer(ev)
	return ev
}

// recycle returns a popped event's storage to the free list, bumping its
// generation so outstanding Timer handles to its previous life go inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fire = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. The event lives in the timer heap, apart from the
// lite per-packet traffic, so hundreds of armed far-future timeouts do
// not deepen every packet callback's sift.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.AtFire(t, fireFunc(fn))
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero.
func (e *Engine) After(d Time, fn func()) Timer {
	return e.AfterFire(d, fireFunc(fn))
}

// AtFire is At for a record: f.Fire runs at absolute virtual time t.
// Ordering and cancellation are At's; only the callback's shape differs.
func (e *Engine) AtFire(t Time, f Firer) Timer {
	ev := e.schedule(t, f)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// AfterFire is AtFire at d after the current time. Negative delays are
// clamped to zero.
func (e *Engine) AfterFire(d Time, f Firer) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtFire(e.now+d, f)
}

// Schedule runs fn at absolute virtual time t with no Timer handle: the
// callback rides in a lite-heap slot itself, bypassing the event free
// list and heap-index maintenance, and shares that heap only with other
// short-lived lite callbacks. It is the fast path for callers that never
// cancel — per-hop tx-done and propagation callbacks, fabric deliveries,
// process wakeups. Ordering is identical to At (one shared sequence
// counter breaks same-instant ties), so mixing Schedule and At changes
// nothing observable.
func (e *Engine) Schedule(t Time, fn func()) {
	e.pushLite(t, e.seq, fn)
	e.seq++
}

// ScheduleAfter is Schedule at d after the current time. Negative delays
// are clamped to zero.
func (e *Engine) ScheduleAfter(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// ReserveSeq claims the next sequence number without scheduling
// anything. Delay lines (FIFO wires that keep only their head flight in
// the heap) reserve each flight's tie-break at the instant the flight
// starts and pass it to ScheduleSeq (or Claim) when the flight reaches
// the head — so pop order is bit-identical to scheduling every flight
// eagerly.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// ScheduleSeq is Schedule with a sequence number previously claimed by
// ReserveSeq. Same-instant ties resolve by reservation order, not by
// when the slot entered the heap.
func (e *Engine) ScheduleSeq(t Time, seq uint64, fn func()) {
	e.pushLite(t, seq, fn)
}

// after is ScheduleAfter's internal alias, kept for the process layer's
// sleep/wakeup path.
func (e *Engine) after(d Time, fn func()) {
	e.ScheduleAfter(d, fn)
}

// PreallocEvents grows the lite heap's backing array until it holds at
// least n callbacks (Schedule, ScheduleSeq) without touching the
// allocator. Like the heaps themselves, the storage survives Reset, so
// callers with known fan-out (the switched congestion network schedules a
// lite tx-done event plus propagation flights per link) pay the cost once
// per engine, not per trial. The timer heap and the event free list grow
// on demand and are kept across Reset too. Calling it on a warm engine is
// a no-op.
func (e *Engine) PreallocEvents(n int) {
	if cap(e.lite) < n {
		grown := make(liteHeap, len(e.lite), n)
		copy(grown, e.lite)
		e.lite = grown
	}
}

// EventCapacity returns how many lite callbacks the engine can hold
// before the lite heap's backing array must grow (see PreallocEvents).
func (e *Engine) EventCapacity() int { return cap(e.lite) }

// Stop makes Run return after the currently executing event completes;
// no flight fires in place after it (see Claim).
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock. It reports
// whether an event was executed. The next event is whichever heap head
// orders first by (at, seq). Outside Run and RunUntil no flight fires in
// place (see Claim), so a Step runs exactly one event and EventsFired
// rises by exactly one.
func (e *Engine) Step() bool {
	if l := e.lite; len(l) > 0 && (len(e.timers) == 0 ||
		earlier(l[0].at, l[0].seq, e.timers[0].at, e.timers[0].seq)) {
		e.now = l[0].at
		fn := e.popLite()
		e.fired++
		fn()
		return true
	}
	if len(e.timers) == 0 {
		return false
	}
	ev := e.removeTimer(0)
	e.now = ev.at
	f := ev.fire
	e.recycle(ev)
	e.fired++
	f.Fire()
	return true
}

// Claim reports whether the event keyed (at, seq) would be the running
// loop's next pop, and if so fires it in place: the clock advances to at,
// EventsFired counts it, and the caller runs the event itself instead of
// arming it with ScheduleSeq. It is for delay lines, whose next flight
// holds a seq reserved when it entered the line (ReserveSeq): a landing
// that finds its successor next in line skips the heap round trip, and
// the pop order is the one the heap would give, because the heap orders
// by key alone. Claim is false outside Run and RunUntil (a bare Step),
// after Stop, for an at past RunUntil's t, and whenever either heap head
// orders first; the caller then arms the flight as usual.
func (e *Engine) Claim(at Time, seq uint64) bool {
	if e.stopped || at > e.bound {
		return false
	}
	if l := e.lite; len(l) > 0 && !earlier(at, seq, l[0].at, l[0].seq) {
		return false
	}
	if h := e.timers; len(h) > 0 && !earlier(at, seq, h[0].at, h[0].seq) {
		return false
	}
	e.now = at
	e.fired++
	return true
}

// Run executes events until the queue is empty or Stop is called.
// Flights may fire in place at any instant (see Claim).
func (e *Engine) Run() {
	e.stopped = false
	e.bound = forever
	for !e.stopped && e.Step() {
	}
	e.bound = noClaim
}

// RunUntil executes events with timestamps <= t, firing flights in place
// up to t, then sets the clock to t unless an event at or before t is
// still pending (Stop ended the loop early), so the clock never runs
// ahead of an event it has yet to fire.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	e.bound = t
	for !e.stopped {
		if at, ok := e.NextEventTime(); !ok || at > t {
			break
		}
		e.Step()
	}
	e.bound = noClaim
	if at, ok := e.NextEventTime(); (!ok || at > t) && e.now < t {
		e.now = t
	}
}

// NextEventTime returns the timestamp of the earliest scheduled event
// without popping it, reporting ok=false on an empty queue.
func (e *Engine) NextEventTime() (Time, bool) {
	switch {
	case len(e.timers) == 0 && len(e.lite) == 0:
		return 0, false
	case len(e.timers) == 0:
		return e.lite[0].at, true
	case len(e.lite) == 0:
		return e.timers[0].at, true
	}
	return min(e.lite[0].at, e.timers[0].at), true
}

// QueueLen returns the number of scheduled events in both heaps.
// Cancelled events are removed eagerly, so the count reflects only live
// work.
func (e *Engine) QueueLen() int { return len(e.lite) + len(e.timers) }
