package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{12300 * Nanosecond, "12.30µs"},
		{4500 * Microsecond, "4.50ms"},
		{1200 * Millisecond, "1.200s"},
		{-3 * Millisecond, "-3.00ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMicros(4.096) != 4096*Nanosecond {
		t.Errorf("FromMicros(4.096) = %v", FromMicros(4.096))
	}
	if FromMillis(0.5) != 500*Microsecond {
		t.Errorf("FromMillis(0.5) = %v", FromMillis(0.5))
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis = %v", got)
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(10, func() { order = append(order, 2) })
	e.After(5, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 3) }) // same instant: FIFO
	e.After(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if e.EventsFired() != 4 {
		t.Errorf("EventsFired = %d", e.EventsFired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending")
	}
	if !tm.Cancel() {
		t.Error("Cancel should report true on a pending timer")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	if tm.Pending() {
		t.Error("cancelled timer still pending")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(1, func() {})
	e.Run()
	if tm.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("fired = %v, want 4 events", fired)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.After(1, func() { n++; e.Stop() })
	e.After(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Errorf("n = %d, want 1 (Stop should halt Run)", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Errorf("n = %d, want 2 after resuming", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(1, rec)
		}
	}
	e.After(0, rec)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Errorf("Now = %v, want 99", e.Now())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New(7)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d%1000)
			e.After(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(123)
		var samples []int64
		var loop func()
		n := 0
		loop = func() {
			samples = append(samples, int64(e.Uniform(0, 1000)), int64(e.Now()))
			n++
			if n < 50 {
				e.After(e.Uniform(1, 100), loop)
			}
		}
		e.After(0, loop)
		e.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUniformBounds(t *testing.T) {
	e := New(5)
	for i := 0; i < 1000; i++ {
		v := e.Uniform(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("Uniform out of bounds: %v", v)
		}
	}
	if e.Uniform(30, 30) != 30 {
		t.Error("degenerate Uniform should return lo")
	}
	if e.Uniform(30, 10) != 30 {
		t.Error("inverted Uniform should return lo")
	}
}

func TestJitterBounds(t *testing.T) {
	e := New(5)
	base := 100 * Microsecond
	for i := 0; i < 1000; i++ {
		v := e.Jitter(base, 0.1)
		if v < 90*Microsecond || v > 110*Microsecond {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if e.Jitter(base, 0) != base {
		t.Error("zero-frac Jitter should return base")
	}
}

func TestNormalTruncation(t *testing.T) {
	e := New(5)
	for i := 0; i < 1000; i++ {
		if v := e.Normal(10, 1000); v < 0 {
			t.Fatalf("Normal returned negative %v", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	e := New(5)
	if e.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !e.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if e.Bernoulli(0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Errorf("Bernoulli(0.3) hit %d/10000 times", n)
	}
}

// TestCancelRemovesFromHeap pins the eager-removal regression: cancelling
// a timer must drop QueueLen immediately instead of leaving a dead entry
// in the heap until popped (the RC requester cancels a retransmit timer
// on nearly every ACK, so lazy deletion accumulates a tail of dead
// entries through timeout-heavy runs).
func TestCancelRemovesFromHeap(t *testing.T) {
	e := New(1)
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = e.After(Time(i+1), func() {})
	}
	if e.QueueLen() != 100 {
		t.Fatalf("QueueLen = %d, want 100", e.QueueLen())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if e.QueueLen() != 50 {
		t.Errorf("QueueLen after cancelling half = %d, want 50", e.QueueLen())
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 50 {
		t.Errorf("fired = %d, want 50", fired)
	}
}

// TestCancelMidHeap cancels from the middle of a larger randomized heap
// and checks the survivors still fire in order.
func TestCancelMidHeap(t *testing.T) {
	e := New(9)
	var fired []Time
	var timers []Timer
	for i := 0; i < 500; i++ {
		d := e.Uniform(1, 1000)
		timers = append(timers, e.After(d, func() { fired = append(fired, e.Now()) }))
	}
	for i := 0; i < 500; i += 3 {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel %d reported not pending", i)
		}
		if timers[i].Pending() {
			t.Fatalf("timer %d still pending after cancel", i)
		}
	}
	e.Run()
	if len(fired) != 500-167 {
		t.Errorf("fired %d events, want %d", len(fired), 500-167)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Error("survivors fired out of order")
	}
}

// TestRecycledEventTimerIsInert schedules through the free list and
// checks a stale Timer (whose event storage was recycled into a new
// schedule) neither reports Pending nor cancels the new event.
func TestRecycledEventTimerIsInert(t *testing.T) {
	e := New(1)
	stale := e.After(1, func() {})
	e.Run() // fires; event storage recycled

	fired := false
	fresh := e.After(5, func() { fired = true }) // reuses the recycled event
	if stale.Pending() {
		t.Error("stale timer reports pending after its event was recycled")
	}
	if stale.Cancel() {
		t.Error("stale Cancel reported true")
	}
	e.Run()
	if !fired {
		t.Error("stale Cancel killed the recycled event's new schedule")
	}
	if fresh.Pending() {
		t.Error("fired fresh timer still pending")
	}
}

// TestReset checks a Reset engine reproduces a fresh engine exactly —
// clock, sequence, random stream and event storage behaviour.
func TestReset(t *testing.T) {
	run := func(e *Engine) []int64 {
		var samples []int64
		n := 0
		var loop func()
		loop = func() {
			samples = append(samples, int64(e.Uniform(0, 1000)), int64(e.Now()), int64(e.EventsFired()))
			if n++; n < 40 {
				e.After(e.Uniform(1, 50), loop)
			}
		}
		e.After(0, loop)
		// Schedule-and-cancel noise so the free list sees traffic.
		tm := e.After(10000, func() {})
		tm.Cancel()
		e.Run()
		return samples
	}
	fresh := run(New(77))
	reused := New(5)
	run(reused) // dirty the engine with a different seed
	reused.Reset(77)
	if reused.Now() != 0 || reused.EventsFired() != 0 || reused.QueueLen() != 0 {
		t.Fatalf("Reset left state: now=%v fired=%d queue=%d",
			reused.Now(), reused.EventsFired(), reused.QueueLen())
	}
	got := run(reused)
	if len(got) != len(fresh) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("sample %d differs after Reset: %d vs %d", i, got[i], fresh[i])
		}
	}
}

// TestResetDropsPendingEvents checks events left in the heap (after a
// Stop) do not leak into the next run.
func TestResetDropsPendingEvents(t *testing.T) {
	e := New(1)
	leaked := false
	e.After(1, func() { e.Stop() })
	e.After(2, func() { leaked = true })
	e.Run()
	if e.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1 pending", e.QueueLen())
	}
	e.Reset(1)
	if e.QueueLen() != 0 {
		t.Errorf("QueueLen after Reset = %d", e.QueueLen())
	}
	e.After(5, func() {})
	e.Run()
	if leaked {
		t.Error("pre-Reset event fired after Reset")
	}
}

// TestEngineAllocsFlat checks the free list keeps steady-state scheduling
// allocation-free: after warmup, a schedule/cancel/fire loop on a Reset
// engine must not allocate per event.
func TestEngineAllocsFlat(t *testing.T) {
	e := New(1)
	loop := func() {
		e.Reset(1)
		var pending Timer
		for j := 0; j < 256; j++ {
			pending.Cancel() // no-op on the zero Timer
			pending = e.After(Time(j+1), func() {})
			e.schedule(Time(j+1), fireFunc(func() {}))
		}
		e.Run()
	}
	loop() // warm the free list
	// Timer is a value handle and events come from the free list, so a
	// warmed schedule/cancel/fire loop allocates nothing at all.
	avg := testing.AllocsPerRun(20, loop)
	t.Logf("warm loop allocates %v/op (ceiling 0)", avg)
	if avg != 0 {
		t.Errorf("allocs per loop = %v, want 0 (free list not recycling)", avg)
	}
}

// timerLoadTimeout is how far ahead timerLoad arms its timers: a Local
// ACK Timeout is milliseconds, the lite traffic microseconds.
const timerLoadTimeout = 10 * Millisecond

// timerLoad is lite churn under armed timers, the shape of a busy RC run:
// lite callbacks circulate, each firing re-scheduling itself 1 µs ahead
// (a packet hop) and, when rearm is set, re-arming the next of n
// far-future timers the way the RC requester's armTimeout does (Cancel,
// then After). The callbacks are built once, so a warm loop allocates
// nothing.
type timerLoad struct {
	e       *Engine
	pending []Timer
	next    int
	tick    func()
	expire  func()
}

func newTimerLoad(e *Engine, n int, rearm bool) *timerLoad {
	l := &timerLoad{e: e, pending: make([]Timer, n), expire: func() {}}
	l.tick = func() {
		if rearm && len(l.pending) > 0 {
			l.pending[l.next].Cancel()
			l.pending[l.next] = l.e.After(timerLoadTimeout, l.expire)
			l.next = (l.next + 1) % len(l.pending)
		}
		l.e.ScheduleAfter(Microsecond, l.tick)
	}
	return l
}

// start arms the timers and seeds burst circulating lite callbacks.
func (l *timerLoad) start(burst int) {
	for i := range l.pending {
		l.pending[i] = l.e.After(timerLoadTimeout+Time(i), l.expire)
	}
	for i := 0; i < burst; i++ {
		l.e.ScheduleAfter(Time(i), l.tick)
	}
}

// TestEngineAllocsFlatMixed checks a warm mixed loop stays off the
// allocator: 16 circulating lite callbacks re-arm 512 far-future timers,
// one per event. The first run sizes both heaps and the free list; every
// later run on the Reset engine must allocate nothing.
func TestEngineAllocsFlatMixed(t *testing.T) {
	e := New(1)
	l := newTimerLoad(e, 512, true)
	loop := func() {
		e.Reset(1)
		l.start(16)
		e.RunUntil(200 * Microsecond) // 3200 lite events, 3200 re-arms
	}
	loop()
	if avg := testing.AllocsPerRun(20, loop); avg != 0 {
		t.Errorf("allocs per warm mixed loop = %v, want 0", avg)
	}
}

// BenchmarkEngineTimerLoad times one event of timerLoad's churn, 16 lite
// callbacks in flight, with 0 and 512 armed timers. The timers sit idle
// or are re-armed one per event. Lite callbacks and timers live in
// separate heaps, so the lite path's ns/event should not move with idle
// timers; re-arming adds one timer-heap removal and push per event.
func BenchmarkEngineTimerLoad(b *testing.B) {
	for _, c := range []struct {
		n     int
		rearm bool
	}{{0, false}, {512, false}, {512, true}} {
		name := fmt.Sprintf("timers=%d/idle", c.n)
		if c.rearm {
			name = fmt.Sprintf("timers=%d/rearm", c.n)
		}
		b.Run(name, func(b *testing.B) {
			e := New(1)
			newTimerLoad(e, c.n, c.rearm).start(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// TestScheduleOrderingMatchesAt checks the lite fire-and-forget path
// (Schedule/ScheduleAfter) shares one sequence counter with At/After:
// same-instant callbacks fire in scheduling order regardless of which
// API queued them, so mixing the two paths changes nothing observable.
func TestScheduleOrderingMatchesAt(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 2) })
	e.ScheduleAfter(10, func() { order = append(order, 3) })
	e.At(5, func() { order = append(order, 0) })
	e.ScheduleAfter(-3, func() { order = append(order, -1) }) // clamped to now
	e.Run()
	want := []int{-1, 0, 1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
	if e.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after Run, want 0", e.QueueLen())
	}
}

// TestScheduleDroppedByReset checks Reset discards pending lite
// callbacks like tracked events, and the engine stays reusable.
func TestScheduleDroppedByReset(t *testing.T) {
	e := New(1)
	leaked := false
	e.Schedule(5, func() { leaked = true })
	e.Reset(2)
	fired := false
	e.ScheduleAfter(1, func() { fired = true })
	e.Run()
	if leaked {
		t.Error("pre-Reset lite callback fired after Reset")
	}
	if !fired {
		t.Error("post-Reset lite callback did not fire")
	}
}

// TestScheduleCancelInterleaved exercises Timer.Cancel with lite
// callbacks pending at the same instants: the timer heap's removal must
// not disturb the lite heap, and the two still merge into one order.
func TestScheduleCancelInterleaved(t *testing.T) {
	e := New(1)
	var fired []int
	timers := make([]Timer, 0, 8)
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(Time(10+i), func() { fired = append(fired, i) })
		timers = append(timers, e.After(Time(10+i), func() { fired = append(fired, 100+i) }))
	}
	for i := 0; i < 8; i += 2 {
		if !timers[i].Cancel() {
			t.Fatalf("timer %d did not cancel", i)
		}
	}
	e.Run()
	want := []int{0, 1, 101, 2, 3, 103, 4, 5, 105, 6, 7, 107}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestPreallocEvents checks a pre-sized, warmed engine: after
// PreallocEvents(n) and one run, a burst of n tracked and lite schedules
// plus the run to drain them allocates nothing.
func TestPreallocEvents(t *testing.T) {
	e := New(1)
	e.PreallocEvents(64)
	fn := func() {}
	loop := func() {
		e.Reset(1)
		for j := 0; j < 32; j++ {
			e.After(Time(j+1), fn)
			e.Schedule(Time(j+1), fn)
		}
		e.Run()
	}
	loop()
	if avg := testing.AllocsPerRun(10, loop); avg > 0 {
		t.Errorf("allocs per pre-sized loop = %v, want 0", avg)
	}
}

// TestReserveSeqTieBreak checks that a callback scheduled late with a
// reserved sequence number keeps its reservation-order priority over
// same-instant events scheduled after the reservation. This is the
// contract the propagation delay lines depend on: only the head flight
// sits in the heap, yet ties resolve exactly as if every flight had been
// scheduled eagerly.
func TestReserveSeqTieBreak(t *testing.T) {
	e := New(1)
	var fired []string
	seq := e.ReserveSeq()
	e.Schedule(5, func() { fired = append(fired, "later") })
	// Reserved earlier, scheduled later: must still run first at t=5.
	e.ScheduleSeq(5, seq, func() { fired = append(fired, "reserved") })
	e.Run()
	if len(fired) != 2 || fired[0] != "reserved" || fired[1] != "later" {
		t.Fatalf("fired %v, want [reserved later]", fired)
	}
}

// TestNextEventTime checks the coordinator's peek primitive: it reports
// the earliest scheduled timestamp without popping or advancing anything.
func TestNextEventTime(t *testing.T) {
	e := New(1)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reports a next event")
	}
	e.Schedule(7, func() {})
	e.Schedule(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v, %v, want 3, true", at, ok)
	}
	if e.Now() != 0 || e.QueueLen() != 2 {
		t.Fatalf("peek mutated the engine: now=%v queue=%d", e.Now(), e.QueueLen())
	}
}

// TestRunUntilStopKeepsClock checks that a Stop inside RunUntil leaves
// the clock at the stopping event while an event at or before the bound
// is still pending: advancing to the bound would let the next Step move
// the clock backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	e := New(1)
	e.Schedule(10, e.Stop)
	e.Schedule(20, func() {})
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("Now = %v after a Stop at 10ns with an event at 20ns pending, want 10ns", e.Now())
	}
	e.Step()
	if e.Now() != 20 {
		t.Fatalf("Now = %v after the next Step, want 20ns", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v after a RunUntil that drained, want 100ns", e.Now())
	}
	// A Stop on the last event at or before the bound leaves nothing
	// behind it, so the clock still reaches the bound.
	e.Schedule(110, e.Stop)
	e.Schedule(300, func() {})
	e.RunUntil(200)
	if e.Now() != 200 {
		t.Fatalf("Now = %v after a Stop with nothing pending before 200ns, want 200ns", e.Now())
	}
}

// TestClaim checks when a flight may fire in place: only inside Run or
// RunUntil, within RunUntil's bound, before Stop, and only when it orders
// before both heap heads. A claim advances the clock and counts the
// event.
func TestClaim(t *testing.T) {
	e := New(1)
	seq := e.ReserveSeq()
	if e.Claim(5, seq) {
		t.Fatal("Claim outside a run loop")
	}
	var got []bool
	claim := func(at Time, seq uint64) {
		before := e.EventsFired()
		ok := e.Claim(at, seq)
		if ok && (e.Now() != at || e.EventsFired() != before+1) {
			t.Fatalf("Claim(%v) left Now %v and %d events fired, want %v and %d", at, e.Now(), e.EventsFired(), at, before+1)
		}
		got = append(got, ok)
	}
	late := e.ReserveSeq()
	var tm Timer
	e.Schedule(1, func() {
		claim(5, seq)  // before the lite head below: fires in place
		claim(6, late) // ties the lite head at 6 but reserved first
	})
	e.Schedule(6, func() {
		claim(6, e.ReserveSeq()) // reserved after the timer at 6 was armed
		tm.Cancel()
		e.Stop()
		claim(7, e.ReserveSeq()) // nothing pending, but the loop stopped
	})
	tm = e.At(6, func() {})
	e.Run()
	e.Schedule(e.Now(), func() {
		claim(e.Now()+50, e.ReserveSeq()) // past RunUntil's bound
		claim(e.Now()+10, e.ReserveSeq())
	})
	e.RunUntil(e.Now() + 20)
	e.Schedule(e.Now(), func() { claim(e.Now(), e.ReserveSeq()) })
	e.Step()
	want := []bool{true, true, false, false, false, true, false}
	if !slices.Equal(got, want) {
		t.Fatalf("claims %v, want %v", got, want)
	}
}

// runLineProgram runs one seeded random program of delay-line flights,
// lite callbacks and cancellable timers — landings reply onto their own
// line or send onto another, and callbacks arm and cancel timers — under
// drive, and returns the fire trace (event id, instant), EventsFired and
// how many flights fired in place.
func runLineProgram(drive func(*Engine)) (trace [][2]int64, fired uint64, inPlace int) {
	e := New(1)
	r := rand.New(rand.NewSource(7))
	record := func(id int) { trace = append(trace, [2]int64{int64(id), int64(e.Now())}) }
	var act func(self int)
	lines := make([]*testLine, 3)
	for i := range lines {
		lines[i] = newTestLine(e, func(f lineFlight) { record(f.id); act(i) })
	}
	var timers []Timer
	ids := 0
	act = func(self int) {
		for n := r.Intn(3); n > 0 && ids < 3000; n-- {
			id := ids
			ids++
			d := Time(r.Intn(16))
			switch k := r.Intn(5); {
			case k < 2: // onto a line, the landing's own when k is 0
				i := r.Intn(len(lines))
				if k == 0 && self >= 0 {
					i = self
				}
				lines[i].push(e.Now()+d, id, 0, false)
			case k == 2:
				e.Schedule(e.Now()+d, func() { record(id); act(-1) })
			case k == 3:
				timers = append(timers, e.After(d+Time(r.Intn(40)), func() { record(id); act(-1) }))
			default:
				if len(timers) > 0 {
					timers[r.Intn(len(timers))].Cancel()
				}
			}
		}
	}
	for i := 0; i < 400; i++ {
		act(-1)
	}
	drive(e)
	for _, l := range lines {
		inPlace += l.inPlace
	}
	return trace, e.EventsFired(), inPlace
}

// TestLineRunMatchesStepLoop runs one random line program under Run,
// under RunUntil in short slices and by a Step loop: firing flights in
// place must not change the fire trace or EventsFired, and a bare Step
// must fire none in place.
func TestLineRunMatchesStepLoop(t *testing.T) {
	want, wantFired, stepInPlace := runLineProgram(func(e *Engine) {
		for e.Step() {
		}
	})
	if stepInPlace != 0 {
		t.Fatalf("a Step loop fired %d flights in place, want 0", stepInPlace)
	}
	if len(want) < 500 {
		t.Fatalf("program fired only %d events", len(want))
	}
	for _, c := range []struct {
		name  string
		drive func(*Engine)
	}{
		{"Run", func(e *Engine) { e.Run() }},
		{"RunUntil", func(e *Engine) {
			for e.QueueLen() > 0 {
				e.RunUntil(e.Now() + 7)
			}
		}},
	} {
		got, fired, inPlace := runLineProgram(c.drive)
		if !slices.Equal(got, want) || fired != wantFired {
			t.Fatalf("%s: %d events, %d fired; the Step loop: %d events, %d fired; traces differ: %v",
				c.name, len(got), fired, len(want), wantFired, !slices.Equal(got, want))
		}
		if inPlace == 0 {
			t.Fatalf("%s fired no flight in place", c.name)
		}
		t.Logf("%s: %d events, %d flights in place", c.name, fired, inPlace)
	}
}

// countFire is a record timer target: each Fire appends the record's id
// and the instant to a shared trace.
type countFire struct {
	e     *Engine
	id    int
	trace *[]int64
}

func (c *countFire) Fire() { *c.trace = append(*c.trace, int64(c.id), int64(c.e.Now())) }

// TestEventSizeClass pins the tracked event at 48 bytes: the Firer
// interface took the func field's place, and one more word would move
// every event into the 64-byte size class.
func TestEventSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Errorf("event is %d bytes, want 48", n)
	}
}

// TestRecordTimerCancelAndInert checks a record timer (AtFire,
// AfterFire) against At's contract: a cancelled one never fires, and a
// fired one's handle goes inert, also after its event is recycled into a
// func timer.
func TestRecordTimerCancelAndInert(t *testing.T) {
	e := New(1)
	var trace []int64
	a, b := &countFire{e, 1, &trace}, &countFire{e, 2, &trace}
	ta := e.AfterFire(10, a)
	tb := e.AtFire(20, b)
	if !ta.Pending() || !tb.Pending() {
		t.Fatal("armed record timers not pending")
	}
	if !ta.Cancel() {
		t.Fatal("Cancel of a pending record timer reported false")
	}
	if ta.Pending() || ta.Cancel() {
		t.Fatal("cancelled record timer still pending or cancellable")
	}
	e.Run()
	if want := []int64{2, 20}; !slices.Equal(trace, want) {
		t.Fatalf("trace %v, want %v (the cancelled record fired, or the other did not)", trace, want)
	}
	if tb.Pending() || tb.Cancel() {
		t.Fatal("fired record timer still pending or cancellable")
	}
	fired := false
	e.After(5, func() { fired = true }) // reuses the fired record's event
	if tb.Pending() || tb.Cancel() {
		t.Fatal("stale record handle acts on the recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("stale record Cancel killed the recycled event's new schedule")
	}
	// A negative delay clamps to now, as After's does.
	e.AfterFire(-5, a)
	e.Run()
	if got := trace[len(trace)-2:]; got[0] != 1 || got[1] != int64(e.Now()) {
		t.Fatalf("AfterFire(-5) fired %v at now %v", got, e.Now())
	}
}

// TestResetWithRecordTimersPending checks an engine Reset with record
// and func timers still pending behaves like New: none of them fires
// after the Reset, and the next run's trace, clock, queue and event
// count are a fresh engine's.
func TestResetWithRecordTimersPending(t *testing.T) {
	run := func(e *Engine) []int64 {
		var trace []int64
		recs := make([]*countFire, 8)
		for i := range recs {
			recs[i] = &countFire{e, i, &trace}
		}
		var tms []Timer
		for i, r := range recs {
			tms = append(tms, e.AfterFire(e.Uniform(1, 100), r))
			if i%3 == 0 {
				id := int64(100 + i)
				e.After(e.Uniform(1, 100), func() { trace = append(trace, id, int64(e.Now())) })
			}
		}
		tms[2].Cancel()
		tms[5].Cancel()
		e.Run()
		return append(trace, int64(e.Now()), int64(e.EventsFired()))
	}
	fresh := run(New(9))

	reused := New(3)
	var leaked []int64
	for i := 0; i < 20; i++ {
		reused.AfterFire(Time(i+1), &countFire{reused, -1, &leaked})
		reused.After(Time(i+1), func() { leaked = append(leaked, -2) })
	}
	reused.RunUntil(5) // fire some, leave the rest pending
	leaked = leaked[:0]
	reused.Reset(9)
	if reused.Now() != 0 || reused.EventsFired() != 0 || reused.QueueLen() != 0 {
		t.Fatalf("Reset left state: now=%v fired=%d queue=%d", reused.Now(), reused.EventsFired(), reused.QueueLen())
	}
	if got := run(reused); !slices.Equal(got, fresh) {
		t.Fatalf("after Reset: %v, fresh engine: %v", got, fresh)
	}
	if len(leaked) != 0 {
		t.Fatalf("timers pending at Reset fired after it: %v", leaked)
	}
}
