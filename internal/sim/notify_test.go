package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// TestCondWakesProcsAndCallbacksInWaitOrder parks processes and Notify
// callbacks on one Cond in alternation, with a WaitTimeout that gives up
// between them: one Broadcast must wake the rest at its own instant in
// the order they began waiting, a woken callback must be forgotten, and
// the timed-out process must leave the list without disturbing the
// callbacks beside it.
func TestCondWakesProcsAndCallbacksInWaitOrder(t *testing.T) {
	e := sim.New(1)
	c := sim.NewCond(e)
	ready := false
	var woke []string
	mark := func(name string) { woke = append(woke, fmt.Sprintf("%s@%d", name, e.Now())) }
	proc := func(name string, at sim.Time) {
		e.Go(name, func(p *sim.Proc) {
			p.Sleep(at)
			p.Wait(c, func() bool { return ready })
			mark(name)
		})
	}
	callback := func(name string, at sim.Time) {
		e.Schedule(at, func() { c.Notify(func() { mark(name) }) })
	}

	proc("p1", 1)
	callback("f2", 2)
	e.Go("timeout", func(p *sim.Proc) {
		p.Sleep(3)
		if p.WaitTimeout(c, 1, func() bool { return ready }) {
			t.Error("WaitTimeout reported success before the Broadcast")
		}
		mark("timeout")
	})
	proc("p3", 5)
	callback("f4", 6)
	e.Schedule(10, func() {
		ready = true
		c.Broadcast()
	})
	e.Schedule(11, c.Broadcast) // nobody is parked any more
	e.MustRun()

	want := []string{"timeout@4", "p1@10", "f2@10", "p3@10", "f4@10"}
	if !reflect.DeepEqual(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
}

// TestMustRunReportsParkedCallback parks a callback on a Cond that is
// never broadcast: Engine.MustRun must report a deadlock, and an engine
// Reset must forget the parked callback.
func TestMustRunReportsParkedCallback(t *testing.T) {
	mustPanic := func(t *testing.T, want []string, run func()) {
		t.Helper()
		defer func() {
			r := fmt.Sprint(recover())
			for _, w := range want {
				if !strings.Contains(r, w) {
					t.Fatalf("MustRun panicked with %q, want it to mention %q", r, w)
				}
			}
		}()
		run()
	}
	park := func(e *sim.Engine, at sim.Time) {
		c := sim.NewCond(e)
		e.Schedule(at, func() { c.Notify(func() { panic("a Cond nobody broadcasts woke its callback") }) })
	}

	t.Run("engine", func(t *testing.T) {
		e := sim.New(1)
		park(e, 5)
		mustPanic(t, []string{"deadlock", "1 callback(s)"}, e.MustRun)
		e.Reset(2)
		e.MustRun() // Reset forgot the parked callback
	})
}
