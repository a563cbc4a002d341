package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// pingPong builds a P-domain ring where every domain sends `ops` flights
// to its right neighbour, each landing triggering the next send, and
// returns a per-domain trace of (landing time, src, arg). Run at
// different lane counts it must produce identical traces — the group's
// core determinism contract.
func pingPong(domains, ops, lanes int) [][]string {
	g := NewGroup(lanes)
	ds := make([]*Domain, domains)
	for i := range ds {
		ds[i] = g.AddDomain(sim.New(int64(i + 1)))
	}
	links := make([]*Link, domains)
	for i := range ds {
		links[i] = g.Connect(ds[i], ds[(i+1)%domains], 100, 2*sim.Microsecond)
	}
	traces := make([][]string, domains)
	for i := range ds {
		i := i
		sent := 0
		ds[i].OnFlight(func(f Flight) {
			traces[i] = append(traces[i], fmt.Sprintf("%d:%d:%d", int64(ds[i].Eng.Now()), f.From, f.Arg))
			if sent < ops {
				sent++
				links[i].Send(Flight{Len: 256, Arg: uint64(1000*i + sent)})
			}
		})
		// Seed the ring: every domain fires one opening flight at t=0.
		links[i].Send(Flight{Len: 256, Arg: uint64(1000 * i)})
	}
	g.Run()
	return traces
}

// TestGroupDeterministicAcrossLanes is the contract test: the same
// linked group produces byte-identical traces at 1, 2, 4 and 8 lanes.
func TestGroupDeterministicAcrossLanes(t *testing.T) {
	want := pingPong(6, 50, 1)
	for _, lanes := range []int{2, 4, 8} {
		got := pingPong(6, 50, lanes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lanes=%d trace differs from sequential", lanes)
		}
	}
	// Sanity: traffic actually flowed.
	if len(want[0]) != 52 { // opening flight from the left neighbour + 50 replies + own seed landing chain
		t.Logf("domain 0 saw %d landings", len(want[0]))
	}
}

// TestLookaheadSafety checks the conservative guarantee directly: no
// flight ever lands before its destination's clock (which would panic in
// Schedule), even under a dense cross-traffic pattern with minimal
// propagation delay.
func TestLookaheadSafety(t *testing.T) {
	g := NewGroup(4)
	a := g.AddDomain(sim.New(1))
	b := g.AddDomain(sim.New(2))
	ab := g.Connect(a, b, 56, sim.Microsecond)
	ba := g.Connect(b, a, 56, sim.Microsecond)
	n := 0
	b.OnFlight(func(f Flight) {
		if n < 500 {
			n++
			ba.Send(Flight{Len: 64})
		}
	})
	a.OnFlight(func(f Flight) { ab.Send(Flight{Len: 64}) })
	ab.Send(Flight{Len: 64})
	g.Run() // would panic on any causality violation
	if n != 500 {
		t.Fatalf("bounce count = %d, want 500", n)
	}
}

// TestFlightMergeOrder pins the (At, From, Seq) merge: two source
// domains emit flights landing at the same instant, and the destination
// must observe the lower domain id first, then reservation order — on
// the wave path and through the epoch loop.
func TestFlightMergeOrder(t *testing.T) {
	for _, epochs := range []bool{false, true} {
		g := NewGroup(1)
		g.forceEpochs = epochs
		s0 := g.AddDomain(sim.New(1))
		s1 := g.AddDomain(sim.New(2))
		dst := g.AddDomain(sim.New(3))
		l0 := g.Connect(s0, dst, 0, sim.Microsecond) // latency-only: same landing instants
		l1 := g.Connect(s1, dst, 0, sim.Microsecond)
		var got []string
		dst.OnFlight(func(f Flight) {
			got = append(got, fmt.Sprintf("%d/%d", f.From, f.Arg))
		})
		// Emitted in interleaved order; all land at t=1µs.
		l1.Send(Flight{Arg: 0})
		l0.Send(Flight{Arg: 0})
		l1.Send(Flight{Arg: 1})
		l0.Send(Flight{Arg: 1})
		g.Run()
		want := []string{"0/0", "0/1", "1/0", "1/1"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epochs=%v: merge order %v, want %v", epochs, got, want)
		}
	}
}

// TestHeterogeneousPropDelivery is the regression test for the inbox
// merge: with two inbound links of very different propagation delays, a
// slow flight drained in an early epoch used to sit at the FIFO head
// while a later epoch drained a fast flight landing before it — so the
// fast flight's landing event delivered the slow flight's payload and
// timestamp. The sorted-inbox merge must deliver each flight at its own
// At with its own Arg, at every lane count. The graph is acyclic, so
// the test forces the epoch loop, where the two flights arrive in
// separate drains; the wave path, which drains both at once, must agree.
func TestHeterogeneousPropDelivery(t *testing.T) {
	for _, c := range []struct {
		lanes  int
		epochs bool
	}{{1, true}, {2, true}, {4, true}, {1, false}, {2, false}} {
		lanes := c.lanes
		g := NewGroup(lanes)
		g.forceEpochs = c.epochs
		slow := g.AddDomain(sim.New(1))
		fast := g.AddDomain(sim.New(2))
		dst := g.AddDomain(sim.New(3))
		ls := g.Connect(slow, dst, 0, 100*sim.Nanosecond)
		lf := g.Connect(fast, dst, 0, sim.Nanosecond)
		var got []string
		dst.OnFlight(func(f Flight) {
			got = append(got, fmt.Sprintf("%d@%d", f.Arg, int64(dst.Eng.Now())))
			if dst.Eng.Now() != f.At {
				t.Errorf("lanes=%d: flight Arg=%d stamped At=%d delivered at %d",
					lanes, f.Arg, int64(f.At), int64(dst.Eng.Now()))
			}
		})
		// Epoch 1 (lookahead 1 ns): slow emits at t=0, landing At=100.
		// Epoch 2 drains it; fast emits at t=2, landing At=3 — drained in
		// epoch 3, behind the still-pending slow flight.
		slow.Eng.Schedule(0, func() { ls.Send(Flight{Arg: 7}) })
		fast.Eng.Schedule(2*sim.Nanosecond, func() { lf.Send(Flight{Arg: 9}) })
		g.Run()
		want := []string{"9@3", "7@100"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d epochs=%v: deliveries %v, want %v", lanes, c.epochs, got, want)
		}
		if c.epochs && g.ranEpochs < 3 {
			t.Fatalf("lanes=%d: %d epoch windows, want the flights drained in separate epochs", lanes, g.ranEpochs)
		}
	}
}

// TestSameInstantLandingOrder pins the landing tie rule: a flight
// landing at the same instant as a local event on its destination fires
// after it, however early the flight was drained. The local event at
// 10 ns is scheduled by an event at `at`; the flight is drained before
// everything on the wave path, and in the epoch loop in the first epoch
// after its send, which comes before the scheduling event (at 5 ns) or
// after it (at 0 ns). A drain-time sequence number would order the
// landing first in three of these four runs and last in one.
func TestSameInstantLandingOrder(t *testing.T) {
	for _, at := range []sim.Time{0, 5 * sim.Nanosecond} {
		for _, epochs := range []bool{false, true} {
			g := NewGroup(1)
			g.forceEpochs = epochs
			src := g.AddDomain(sim.New(1))
			dst := g.AddDomain(sim.New(2))
			slow := g.Connect(src, dst, 0, 10*sim.Nanosecond)
			g.Connect(src, dst, 0, sim.Nanosecond) // carries nothing; makes the epochs 1 ns
			var got []string
			dst.OnFlight(func(f Flight) {
				got = append(got, fmt.Sprintf("land@%d", int64(dst.Eng.Now())))
			})
			src.Eng.Schedule(0, func() { slow.Send(Flight{Arg: 1}) })
			dst.Eng.Schedule(at, func() {
				dst.Eng.Schedule(10*sim.Nanosecond, func() {
					got = append(got, fmt.Sprintf("local@%d", int64(dst.Eng.Now())))
				})
			})
			g.Run()
			want := []string{"local@10", "land@10"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("scheduler at %v, epochs=%v: order %v, want %v", at, epochs, got, want)
			}
		}
	}
}

// star builds leaves domains each sending one flight per local event to
// a hub (domain 0), and returns the group, the hub and the hub's
// landing count.
func star(lanes, leaves, events int) (*Group, *Domain, *int) {
	g := NewGroup(lanes)
	hub := g.AddDomain(sim.New(1))
	landed := new(int)
	hub.OnFlight(func(Flight) { *landed++ })
	for i := 1; i <= leaves; i++ {
		d := g.AddDomain(sim.New(int64(i + 1)))
		l := g.Connect(d, hub, 25, 2*sim.Microsecond)
		for k := 0; k < events; k++ {
			d.Eng.Schedule(sim.Time(k)*sim.Microsecond, func() { l.Send(Flight{Len: 64}) })
		}
	}
	return g, hub, landed
}

// TestStarRunsInTwoWaves checks the wave schedule on kv-serve's link
// shape: leaves into one hub run as two waves and no epoch windows,
// where the epoch loop needs a window per lookahead (2 µs) of traffic.
func TestStarRunsInTwoWaves(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		g, _, landed := star(lanes, 4, 10)
		g.Run()
		if g.ranWaves != 2 || g.ranEpochs != 0 || *landed != 40 {
			t.Errorf("lanes=%d: %d waves, %d epochs, %d landings; want 2, 0, 40",
				lanes, g.ranWaves, g.ranEpochs, *landed)
		}
	}
	g, _, landed := star(1, 4, 10)
	g.forceEpochs = true
	g.Run()
	if g.ranWaves != 0 || g.ranEpochs < 5 || *landed != 40 {
		t.Errorf("forced epochs: %d waves, %d epochs, %d landings; want 0, ≥5, 40",
			g.ranWaves, g.ranEpochs, *landed)
	}
}

// TestStopEndsWave checks Stop on the wave path: a leaf stopping its
// engine ends the group run once its wave is done, so the hub's wave
// never starts.
func TestStopEndsWave(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		g, hub, landed := star(lanes, 3, 10)
		leaf := g.domains[2]
		leaf.Eng.Schedule(3*sim.Microsecond, leaf.Eng.Stop)
		g.Run()
		if g.ranWaves != 1 || *landed != 0 || hub.Eng.Now() != 0 {
			t.Errorf("lanes=%d: %d waves and %d hub landings after Stop, want 1 and 0", lanes, g.ranWaves, *landed)
		}
		if leaf.Eng.QueueLen() == 0 {
			t.Errorf("lanes=%d: the stopped leaf ran dry", lanes)
		}
	}
}

// TestWavePanicReraised checks that a panic on a lane inside a wave
// surfaces from Run with its value.
func TestWavePanicReraised(t *testing.T) {
	g, hub, _ := star(3, 4, 2)
	hub.OnFlight(func(Flight) { panic("hub failure") })
	defer func() {
		if r := recover(); r != "hub failure" {
			t.Fatalf("Run recovered %v, want the hub's panic", r)
		}
	}()
	g.Run()
}

// TestStopEndsGroupRun pins Stop semantics under the epoch loop: a
// domain calling Engine.Stop inside a window must end the whole group
// run at the next barrier, not just its current window.
func TestStopEndsGroupRun(t *testing.T) {
	g := NewGroup(1)
	a := g.AddDomain(sim.New(1))
	b := g.AddDomain(sim.New(2))
	ab := g.Connect(a, b, 100, sim.Microsecond)
	ba := g.Connect(b, a, 100, sim.Microsecond)
	landings := 0
	b.OnFlight(func(f Flight) {
		landings++
		if landings == 3 {
			b.Eng.Stop()
			return
		}
		ba.Send(Flight{Len: 64})
	})
	a.OnFlight(func(f Flight) { ab.Send(Flight{Len: 64}) })
	ab.Send(Flight{Len: 64})
	g.Run()
	if landings != 3 {
		t.Fatalf("group ran past Stop: %d landings, want 3", landings)
	}
}

// TestRewindClearsPanicState checks that a lane panic captured in one
// run cannot be re-raised by a rewound rerun (the sync.Once would
// otherwise stay consumed and mask the rerun's own outcome).
func TestRewindClearsPanicState(t *testing.T) {
	engA, engB := sim.New(1), sim.New(2)
	g := NewGroup(2)
	a := g.AddDomain(engA)
	b := g.AddDomain(engB)
	ab := g.Connect(a, b, 100, sim.Microsecond)
	boom := true
	b.OnFlight(func(f Flight) {
		if boom {
			panic("first-run failure")
		}
	})
	a.OnFlight(func(f Flight) {})
	ab.Send(Flight{Len: 64})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first run did not surface the lane panic")
			}
		}()
		g.Run()
	}()
	engA.Reset(3)
	engB.Reset(4)
	g.Rewind()
	boom = false
	ab.Send(Flight{Len: 64})
	g.Run() // must not re-panic with the stale first-run value
}

// TestLinkSerialization checks the egress cursor: back-to-back flights
// on one link land spaced by their serialization time, not stacked on
// the same instant.
func TestLinkSerialization(t *testing.T) {
	g := NewGroup(1)
	src := g.AddDomain(sim.New(1))
	dst := g.AddDomain(sim.New(2))
	l := g.Connect(src, dst, 8, sim.Microsecond) // 8 Gb/s = 1 ns/byte
	var at []sim.Time
	dst.OnFlight(func(f Flight) { at = append(at, dst.Eng.Now()) })
	l.Send(Flight{Len: 1000})
	l.Send(Flight{Len: 1000})
	g.Run()
	if len(at) != 2 {
		t.Fatalf("landings = %d, want 2", len(at))
	}
	if want := sim.Microsecond + 1000*sim.Nanosecond; at[0] != want {
		t.Errorf("first landing at %v, want %v", at[0], want)
	}
	if got := at[1] - at[0]; got != 1000*sim.Nanosecond {
		t.Errorf("landing spacing %v, want 1µs of serialization", got)
	}
}

// TestIndependentDomainsRunDry checks the link-free fast path: domains
// with no boundary links each run to completion, in parallel, exactly as
// their engines would alone.
func TestIndependentDomainsRunDry(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		g := NewGroup(lanes)
		done := make([]sim.Time, 3)
		for i := 0; i < 3; i++ {
			i := i
			d := g.AddDomain(sim.New(int64(i)))
			end := sim.Time(i+1) * sim.Millisecond
			d.Eng.Schedule(end, func() { done[i] = d.Eng.Now() })
		}
		g.Run()
		for i, at := range done {
			if want := sim.Time(i+1) * sim.Millisecond; at != want {
				t.Errorf("lanes=%d domain %d finished at %v, want %v", lanes, i, at, want)
			}
		}
	}
}

// TestMustRunPanicsOnDeadlock mirrors sim.Engine.MustRun: a domain whose
// process parks forever must surface as a group-level panic naming the
// domain.
func TestMustRunPanicsOnDeadlock(t *testing.T) {
	g := NewGroup(1)
	d := g.AddDomain(sim.New(1))
	d.Eng.Go("stuck", func(p *sim.Proc) {
		c := sim.NewCond(d.Eng)
		p.Wait(c, func() bool { return false }) // nobody will ever signal
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustRun did not panic on a parked process")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("panic %v does not mention deadlock", r)
		}
	}()
	g.MustRun()
}

// TestMustRunNamesDeadlockedWaveDomain checks the deadlock diagnostic on
// the wave path: the hub of a star parks a process forever, and MustRun
// must name it.
func TestMustRunNamesDeadlockedWaveDomain(t *testing.T) {
	g, hub, _ := star(2, 3, 2)
	hub.Eng.Go("stuck", func(p *sim.Proc) {
		c := sim.NewCond(hub.Eng)
		p.Wait(c, func() bool { return false })
	})
	defer func() {
		r := fmt.Sprint(recover())
		if !strings.Contains(r, "deadlock") || !strings.Contains(r, "domain 0") {
			t.Fatalf("MustRun panicked with %q, want a deadlock naming domain 0", r)
		}
	}()
	g.MustRun()
}

// TestConnectValidation pins the constructor panics: self-links and
// zero-lookahead links are design errors, not runtime states.
func TestConnectValidation(t *testing.T) {
	g := NewGroup(1)
	a := g.AddDomain(sim.New(1))
	b := g.AddDomain(sim.New(2))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("self-link", func() { g.Connect(a, a, 100, sim.Microsecond) })
	mustPanic("zero-prop", func() { g.Connect(a, b, 100, 0) })
}

// TestDecompose covers the partitioner: pod-local flows split into one
// domain per pod, a coupling flow merges them, and fully coupled
// patterns collapse to one domain.
func TestDecompose(t *testing.T) {
	// 6 hosts, two pods of 3 with local flows only.
	p := Decompose(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if p.Count != 2 {
		t.Fatalf("pod decomposition found %d domains, want 2", p.Count)
	}
	if !reflect.DeepEqual(p.Domain, []int{0, 0, 0, 1, 1, 1}) {
		t.Fatalf("Domain = %v", p.Domain)
	}
	if got := p.Members(1); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Members(1) = %v", got)
	}
	// One cross-pod flow couples everything.
	p = Decompose(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {2, 3}})
	if p.Count != 1 {
		t.Fatalf("coupled decomposition found %d domains, want 1", p.Count)
	}
	// Incast: everyone targets host 0.
	flows := make([][2]int, 0, 8)
	for i := 1; i < 9; i++ {
		flows = append(flows, [2]int{i, 0})
	}
	p = Decompose(9, flows)
	if p.Count != 1 {
		t.Fatalf("incast decomposed into %d domains, want 1", p.Count)
	}
	// Isolated hosts each get their own domain, numbered in vertex order.
	p = Decompose(3, nil)
	if p.Count != 3 || !reflect.DeepEqual(p.Domain, []int{0, 1, 2}) {
		t.Fatalf("no-flow decomposition = %+v", p)
	}
}

// TestGroupAllocFreeWarm pins the steady-state handoff budget at the
// package level: after a warm-up run, re-running a rebuilt two-domain
// exchange on recycled engines must not allocate per flight (rings,
// inbox, merge scratch and heap slots all recycle). The root-level
// TestAllocBudgetShardedSend covers the full cluster-on-shard path.
func TestGroupAllocFreeWarm(t *testing.T) {
	engA, engB := sim.New(1), sim.New(2)
	g := NewGroup(1)
	a, b := g.AddDomain(engA), g.AddDomain(engB)
	ab := g.Connect(a, b, 100, 2*sim.Microsecond)
	ba := g.Connect(b, a, 100, 2*sim.Microsecond)
	var n int
	b.OnFlight(func(f Flight) {
		if n < 256 {
			n++
			ba.Send(Flight{Len: 64})
		}
	})
	a.OnFlight(func(f Flight) { ab.Send(Flight{Len: 64}) })
	seed := int64(0)
	trial := func() {
		seed++
		engA.Reset(seed)
		engB.Reset(seed + 1)
		g.Rewind()
		n = 0
		ab.Send(Flight{Len: 64})
		g.Run()
	}
	trial()
	if avg := testing.AllocsPerRun(10, trial); avg > 2 {
		t.Errorf("warm group trial allocates %.0f/run, want ≤ 2 (per-flight garbage on the handoff path)", avg)
	}
}
