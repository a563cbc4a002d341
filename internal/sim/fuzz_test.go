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
}

// refEngine is a trivially correct model of Engine's ordering contract:
// every pending callback, lite or tracked, sits in one slice kept sorted
// by (at, seq), and the next event is always the first element.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	fired   []int
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

func (m *refEngine) schedule(at Time, id int, child byte) uint64 {
	s := m.seq
	m.seq++
	m.insert(refEvent{at: at, seq: s, id: id, child: child})
	return s
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
	if d, _, ok := fuzzChild(ev.child); ok {
		m.schedule(m.now+d, childID(ev.id), 0) // one order for both kinds
	}
	return true
}

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
// handles, callbacks that schedule more events, Step, RunUntil and
// Reset — and runs it against the engine and a sorted-slice model side
// by side. After every operation the fire order, Now, NextEventTime and
// QueueLen must agree. Lite callbacks and tracked timers live in
// separate heaps inside Engine; the model has one ordered list, so this
// checks that the heads merge into the single (at, seq) order.
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
		var fire func(id int, child byte) func()
		fire = func(id int, child byte) func() {
			return func() {
				got = append(got, id)
				if d, tracked, ok := fuzzChild(child); ok {
					if tracked {
						e.After(d, fire(childID(id), 0))
					} else {
						e.ScheduleAfter(d, fire(childID(id), 0))
					}
				}
			}
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
			switch code := arg(); code % 10 {
			case 0: // Schedule
				d, c := fuzzDelay(arg()), arg()
				e.Schedule(e.Now()+d, fire(op, c))
				m.schedule(m.now+d, op, c)
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
				case code%10 == 3:
					tm = e.At(e.Now()+d, fire(op, c))
				case d == 0 && c&1 != 0:
					tm = e.After(-1, fire(op, c))
				default:
					tm = e.After(d, fire(op, c))
				}
				timers = append(timers, handle{tm, m.schedule(m.now+d, op, c)})
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
				e.RunUntil(u)
				for len(m.pending) > 0 && m.pending[0].at <= u {
					m.step()
				}
				m.now = max(m.now, u)
			case 8: // Step
				if ran, want := e.Step(), m.step(); ran != want {
					t.Fatalf("op %d: Step() = %v, model %v", op, ran, want)
				}
			case 9: // Reset: every handle goes stale, reservations lapse
				e.Reset(int64(arg()))
				m.now, m.seq, m.pending = 0, 0, m.pending[:0]
				for i := range timers {
					timers[i].seq = ^uint64(0)
				}
				reserved = reserved[:0]
			}
			checkEngine(t, op, e, m, got)
			got, m.fired = got[:0], m.fired[:0] // compared; keep checks O(1)
		}
		e.Run()
		for m.step() {
		}
		checkEngine(t, -1, e, m, got)
	})
}

// checkEngine compares the engine's observable state with the model's:
// the callbacks fired since the last check, Now, QueueLen and
// NextEventTime.
func checkEngine(t *testing.T, op int, e *Engine, m *refEngine, got []int) {
	t.Helper()
	if !slices.Equal(got, m.fired) {
		t.Fatalf("op %d: fire order %v, model %v", op, got, m.fired)
	}
	if e.Now() != m.now {
		t.Fatalf("op %d: Now() = %v, model %v", op, e.Now(), m.now)
	}
	if e.QueueLen() != len(m.pending) {
		t.Fatalf("op %d: QueueLen() = %d, model %d", op, e.QueueLen(), len(m.pending))
	}
	at, ok := e.NextEventTime()
	if ok != (len(m.pending) > 0) || ok && at != m.pending[0].at {
		t.Fatalf("op %d: NextEventTime() = %v, %v, model %v", op, at, ok, m.pending)
	}
}
