package sim

import (
	"slices"
	"testing"
)

// refEvent is one pending callback in the reference model.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	child byte // what the callback schedules when it fires (see fuzzChild)
	line  int  // 1 + the delay line the flight rides, 0 for a callback
	stop  bool // the callback calls Stop
}

// refEngine is a trivially correct model of Engine's ordering contract:
// every pending callback, lite, tracked or a flight on a delay line, sits
// in one slice kept sorted by (at, seq), and the next event is always the
// first element. A line is nothing but its FIFO clamp (tail).
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	fired   []int
	count   uint64 // events fired since the last Reset
	tail    [2]Time
	stopped bool
}

func (m *refEngine) insert(ev refEvent) {
	i, _ := slices.BinarySearchFunc(m.pending, ev, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	m.pending = slices.Insert(m.pending, i, ev)
}

// schedule gives ev the next sequence number and queues it.
func (m *refEngine) schedule(ev refEvent) uint64 {
	ev.seq = m.seq
	m.seq++
	m.insert(ev)
	return ev.seq
}

// push queues a flight on line ev.line, clamped to the line's tail.
func (m *refEngine) push(ev refEvent) {
	ev.at = max(ev.at, m.tail[ev.line-1])
	m.tail[ev.line-1] = ev.at
	m.schedule(ev)
}

// cancel removes the pending event with sequence number s, reporting
// whether it was still pending.
func (m *refEngine) cancel(s uint64) bool {
	for i, ev := range m.pending {
		if ev.seq == s {
			m.pending = slices.Delete(m.pending, i, i+1)
			return true
		}
	}
	return false
}

func (m *refEngine) step() bool {
	if len(m.pending) == 0 {
		return false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	m.now = ev.at
	m.fired = append(m.fired, ev.id)
	m.count++
	switch d, _, ok := fuzzChild(ev.child); {
	case ev.stop:
		m.stopped = true
	case ev.line > 0 && ev.child&3 == 3: // a reply onto its own line
		m.push(refEvent{at: m.now + d, id: childID(ev.id), line: ev.line})
	case ok:
		m.schedule(refEvent{at: m.now + d, id: childID(ev.id)}) // one order for both kinds
	}
	return true
}

// runUntil is RunUntil: events up to u until one stops the loop, then
// the clock moves to u unless an event at or before u is still pending.
func (m *refEngine) runUntil(u Time) {
	m.stopped = false
	for !m.stopped && len(m.pending) > 0 && m.pending[0].at <= u {
		m.step()
	}
	if len(m.pending) == 0 || m.pending[0].at > u {
		m.now = max(m.now, u)
	}
}

// run is Run: every event until one stops the loop.
func (m *refEngine) run() {
	m.stopped = false
	for !m.stopped && m.step() {
	}
}

// testLine is a delay line as internal/fabric and internal/congestion
// build one: a FIFO of flights, each holding the seq it reserved on
// entry, with only the head armed in the engine. A landing decides
// whether the line stays armed before its handler runs (the handler may
// push onto this line, and a push onto an empty line arms itself), then
// fires the next flight in place (Claim) or arms it.
type testLine struct {
	e       *Engine
	flights []lineFlight
	fn      func()
	run     func(lineFlight)
	inPlace int // flights fired in place
}

// lineFlight is one flight on a testLine.
type lineFlight struct {
	at    Time
	seq   uint64
	id    int
	child byte
	stop  bool
}

func newTestLine(e *Engine, run func(lineFlight)) *testLine {
	l := &testLine{e: e, run: run}
	l.fn = l.land
	return l
}

// push queues a flight at at, clamped to the line's tail.
func (l *testLine) push(at Time, id int, child byte, stop bool) {
	if n := len(l.flights); n > 0 {
		at = max(at, l.flights[n-1].at)
	}
	f := lineFlight{at: at, seq: l.e.ReserveSeq(), id: id, child: child, stop: stop}
	l.flights = append(l.flights, f)
	if len(l.flights) == 1 {
		l.e.ScheduleSeq(at, f.seq, l.fn)
	}
}

func (l *testLine) land() {
	for {
		f := l.flights[0]
		l.flights = l.flights[1:]
		armed := len(l.flights) > 0
		l.run(f)
		if !armed {
			return
		}
		next := l.flights[0]
		if !l.e.Claim(next.at, next.seq) {
			l.e.ScheduleSeq(next.at, next.seq, l.fn)
			return
		}
		l.inPlace++
	}
}

// unarmed counts the flights waiting behind the lines' armed heads: they
// are pending in the model but not in the engine's heaps.
func unarmed(lines []*testLine) int {
	n := 0
	for _, l := range lines {
		n += max(len(l.flights)-1, 0)
	}
	return n
}

// fuzzRecord is a record timer's target: its Fire runs the callback a
// func timer of the same operation would.
type fuzzRecord struct{ fn func() }

func (r *fuzzRecord) Fire() { r.fn() }

// fuzzChild decodes what a fired callback schedules: nothing, or one lite
// (Schedule) or tracked (After) callback d ahead of the firing instant.
func fuzzChild(c byte) (d Time, tracked, ok bool) {
	if c&3 == 0 {
		return 0, false, false
	}
	return Time(c >> 2), c&1 == 0, true
}

// childID names a callback scheduled from inside callback id.
func childID(id int) int { return id + 1<<20 }

// fuzzDelay turns one input byte into a delay: half the bytes give a few
// ns, so same-instant ties are common; most others spread over ~100 ns,
// and the top 16 reach milliseconds ahead, like a retransmit timeout.
func fuzzDelay(b byte) Time {
	switch {
	case b < 0x80:
		return Time(b % 8)
	case b < 0xf0:
		return Time(b - 0x80)
	}
	return Time(b&0x0f) * Millisecond
}

// FuzzEngineOrder decodes its input into a program of engine operations —
// Schedule, ReserveSeq+ScheduleSeq, At/After, Cancel of live and stale
// handles, callbacks that schedule more events, flights on two delay
// lines whose landings fire their successors in place (Claim) and may
// reply onto their own line, Stop from inside a callback or a landing,
// Step, RunUntil and Reset — and runs it against the engine and a
// sorted-slice model side by side. After every operation the fire order,
// Now, NextEventTime, QueueLen and EventsFired must agree; a Step must
// fire exactly one event, and RunUntil(u) nothing past u. Lite callbacks
// and tracked timers live in separate heaps inside Engine and a line
// keeps all but its head out of both; the model has one ordered list, so
// this checks that the heads merge into the single (at, seq) order.
//
// Operation codes below 0xb0 pick one of the first ten operations by
// their value mod 10; codes 0xb0–0xbf arm a record timer (AtFire,
// AfterFire) and may cancel it at once; even codes from 0xc0 put flights
// on a line, odd ones a Stop. Record timers join the func timers' handle
// list, so Cancel and Reset reach both, and the model schedules them as
// it does At.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2, 3, 0, 0, 5, 0, 1, 8, 10})
	f.Add([]byte{3, 0xf2, 0, 3, 0xf1, 0, 0, 1, 0, 5, 0, 6, 0xf3, 0, 0, 6})
	f.Add([]byte{1, 1, 0, 4, 5, 2, 0, 3, 9, 2, 2, 5, 0, 9, 9, 7, 4})
	f.Add([]byte{0, 0, 6, 3, 0, 5, 5, 1, 7, 1, 8, 0, 0, 1, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		// ~80 operations reach every ordering case; longer inputs made
		// the fuzzer spend its time minimizing instead of exploring.
		if len(prog) > 256 {
			prog = prog[:256]
		}
		e := New(1)
		m := &refEngine{}
		var got []int
		horizon := forever // RunUntil's bound while it runs
		fired := func(id int) {
			if e.Now() > horizon {
				t.Fatalf("event %d fired at %v, past RunUntil's %v", id, e.Now(), horizon)
			}
			got = append(got, id)
		}
		var fire func(id int, child byte) func()
		spawn := func(id int, child byte) {
			if d, tracked, ok := fuzzChild(child); ok {
				if tracked {
					e.After(d, fire(childID(id), 0))
				} else {
					e.ScheduleAfter(d, fire(childID(id), 0))
				}
			}
		}
		fire = func(id int, child byte) func() {
			return func() {
				fired(id)
				spawn(id, child)
			}
		}
		lines := make([]*testLine, 2)
		for i := range lines {
			lines[i] = newTestLine(e, func(f lineFlight) {
				fired(f.id)
				switch {
				case f.stop:
					e.Stop()
				case f.child&3 == 3:
					lines[i].push(e.Now()+Time(f.child>>2), childID(f.id), 0, false)
				default:
					spawn(f.id, f.child)
				}
			})
		}
		type handle struct {
			tm  Timer
			seq uint64
		}
		var timers []handle
		var reserved []uint64
		next := 0
		arg := func() byte {
			if next >= len(prog) {
				return 0
			}
			next++
			return prog[next-1]
		}
		for op := 0; next < len(prog); op++ {
			code := arg()
			kind := int(code % 10)
			switch {
			case code >= 0xc0:
				kind = 10 + int(code&1)
			case code >= 0xb0:
				kind = 12
			}
			switch kind {
			case 0: // Schedule
				d, c := fuzzDelay(arg()), arg()
				e.Schedule(e.Now()+d, fire(op, c))
				m.schedule(refEvent{at: m.now + d, id: op, child: c})
			case 1: // ReserveSeq
				reserved = append(reserved, e.ReserveSeq())
				m.seq++
			case 2: // ScheduleSeq with the oldest reservation
				d, c := fuzzDelay(arg()), arg()
				if len(reserved) == 0 {
					continue
				}
				s := reserved[0]
				reserved = reserved[1:]
				e.ScheduleSeq(e.Now()+d, s, fire(op, c))
				m.insert(refEvent{at: m.now + d, seq: s, id: op, child: c})
			case 3, 4: // At / After (a negative After delay clamps to now)
				d, c := fuzzDelay(arg()), arg()
				var tm Timer
				switch {
				case kind == 3:
					tm = e.At(e.Now()+d, fire(op, c))
				case d == 0 && c&1 != 0:
					tm = e.After(-1, fire(op, c))
				default:
					tm = e.After(d, fire(op, c))
				}
				timers = append(timers, handle{tm, m.schedule(refEvent{at: m.now + d, id: op, child: c})})
			case 5: // Cancel a live or stale handle
				k := int(arg())
				if len(timers) == 0 {
					continue
				}
				h := timers[k%len(timers)]
				want := m.cancel(h.seq)
				if p := h.tm.Pending(); p != want {
					t.Fatalf("op %d: Pending() = %v, model %v", op, p, want)
				}
				if c := h.tm.Cancel(); c != want {
					t.Fatalf("op %d: Cancel() = %v, model %v", op, c, want)
				}
			case 6, 7: // RunUntil
				u := e.Now() + fuzzDelay(arg())
				horizon = u
				e.RunUntil(u)
				horizon = forever
				m.runUntil(u)
			case 8: // Step
				before := e.EventsFired()
				ran, want := e.Step(), m.step()
				if ran != want {
					t.Fatalf("op %d: Step() = %v, model %v", op, ran, want)
				}
				if n := e.EventsFired() - before; ran && n != 1 || !ran && n != 0 {
					t.Fatalf("op %d: Step() = %v fired %d events", op, ran, n)
				}
			case 9: // Reset: every handle goes stale, reservations lapse
				e.Reset(int64(arg()))
				m.now, m.seq, m.count, m.pending, m.tail = 0, 0, 0, m.pending[:0], [2]Time{}
				for i := range timers {
					timers[i].seq = ^uint64(0)
				}
				reserved = reserved[:0]
				for _, l := range lines {
					l.flights = nil
				}
			case 10: // 1–4 flights onto one line; a child byte ending in
				// 3 replies onto the flight's own line when it lands
				sel := arg()
				i := int(sel & 1)
				for k := int(sel>>1)%4 + 1; k > 0; k-- {
					d, c := fuzzDelay(arg()), arg()
					id := op + k<<24
					lines[i].push(e.Now()+d, id, c, false)
					m.push(refEvent{at: m.now + d, id: id, child: c, line: i + 1})
				}
			case 12: // a record timer: AtFire on even codes, AfterFire on
				// odd ones; bit 1 cancels it right after arming
				d, c := fuzzDelay(arg()), arg()
				rec := &fuzzRecord{fire(op, c)}
				var tm Timer
				if code&1 == 0 {
					tm = e.AtFire(e.Now()+d, rec)
				} else {
					tm = e.AfterFire(d, rec)
				}
				h := handle{tm, m.schedule(refEvent{at: m.now + d, id: op, child: c})}
				timers = append(timers, h)
				if code&2 != 0 {
					if !h.tm.Cancel() || !m.cancel(h.seq) {
						t.Fatalf("op %d: a record timer just armed did not cancel", op)
					}
				}
			case 11: // Stop from a callback, or from a landing
				sel, d := arg(), fuzzDelay(arg())
				if sel&1 == 0 {
					e.Schedule(e.Now()+d, func() { fired(op); e.Stop() })
					m.schedule(refEvent{at: m.now + d, id: op, stop: true})
				} else {
					i := int(sel>>1) & 1
					lines[i].push(e.Now()+d, op, 0, true)
					m.push(refEvent{at: m.now + d, id: op, line: i + 1, stop: true})
				}
			}
			checkEngine(t, op, e, m, lines, got)
			got, m.fired = got[:0], m.fired[:0] // compared; keep checks O(1)
		}
		for { // a Stop ends a Run early; run again until both drain
			e.Run()
			m.run()
			checkEngine(t, -1, e, m, lines, got)
			got, m.fired = got[:0], m.fired[:0]
			if len(m.pending) == 0 {
				break
			}
		}
	})
}

// checkEngine compares the engine's observable state with the model's:
// the callbacks fired since the last check, Now, QueueLen (plus the
// flights waiting behind the lines' heads), NextEventTime and
// EventsFired.
func checkEngine(t *testing.T, op int, e *Engine, m *refEngine, lines []*testLine, got []int) {
	t.Helper()
	if !slices.Equal(got, m.fired) {
		t.Fatalf("op %d: fire order %v, model %v", op, got, m.fired)
	}
	if e.Now() != m.now {
		t.Fatalf("op %d: Now() = %v, model %v", op, e.Now(), m.now)
	}
	if n := e.QueueLen() + unarmed(lines); n != len(m.pending) {
		t.Fatalf("op %d: QueueLen() + unarmed flights = %d, model %d", op, n, len(m.pending))
	}
	at, ok := e.NextEventTime()
	if ok != (len(m.pending) > 0) || ok && at != m.pending[0].at {
		t.Fatalf("op %d: NextEventTime() = %v, %v, model %v", op, at, ok, m.pending)
	}
	if e.EventsFired() != m.count {
		t.Fatalf("op %d: EventsFired() = %d, model %d", op, e.EventsFired(), m.count)
	}
}
