package shard

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// dagTrace runs a seven-domain DAG over lanes lanes and returns each
// domain's trace of (landing time, src, arg). Domain 0 fans out to 1–3,
// 1 and 2 fan in to 4, 2 and 3 to 5, and 4 and 5 to the sink 6, which 0
// also reaches directly: four waves. Every domain but the sink fires
// local sends, and every landing outside the sink triggers an onward
// send, round-robin over the domain's outbound links. Run at different
// lane counts it must produce identical traces — the group's core
// determinism contract.
func dagTrace(lanes, ops int) (*Group, [][]string) {
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 5}, {4, 6}, {5, 6}, {0, 6}}
	g := NewGroup(lanes)
	ds := make([]*Domain, 7)
	for i := range ds {
		ds[i] = g.AddDomain(sim.New(int64(i + 1)))
	}
	out := make([][]*Link, len(ds))
	for k, e := range edges {
		prop := sim.Time(1+k%3) * sim.Microsecond
		out[e[0]] = append(out[e[0]], g.Connect(ds[e[0]], ds[e[1]], 100, prop))
	}
	traces := make([][]string, len(ds))
	for i := range ds {
		i, d := i, ds[i]
		sent := 0
		send := func() {
			if sent < ops && len(out[i]) > 0 {
				sent++
				out[i][sent%len(out[i])].Send(Flight{Len: 256, Arg: uint64(1000*i + sent)})
			}
		}
		d.OnFlight(func(f Flight) {
			traces[i] = append(traces[i], fmt.Sprintf("%d:%d:%d", int64(d.Eng.Now()), f.From, f.Arg))
			send()
		})
		for k := 0; k < 4; k++ {
			d.Eng.Schedule(sim.Time(k*(i+1))*sim.Microsecond, send)
		}
	}
	g.Run()
	return g, traces
}

// TestGroupDeterministicAcrossLanes is the contract test: the same
// linked group produces byte-identical traces at 1, 2, 4 and 8 lanes.
func TestGroupDeterministicAcrossLanes(t *testing.T) {
	g, want := dagTrace(1, 50)
	if g.ranWaves != 4 {
		t.Fatalf("%d waves, want 4", g.ranWaves)
	}
	if len(want[4]) == 0 || len(want[5]) == 0 || len(want[6]) == 0 {
		t.Fatalf("landings did not reach the fan-in domains: %d, %d, %d", len(want[4]), len(want[5]), len(want[6]))
	}
	for _, lanes := range []int{2, 4, 8} {
		if _, got := dagTrace(lanes, 50); !reflect.DeepEqual(got, want) {
			t.Errorf("lanes=%d trace differs from sequential", lanes)
		}
	}
}

// TestCyclicGroupPanics checks that a link graph with a cycle is
// rejected before any engine runs, naming a domain on the cycle: a
// 2-cycle, and a 3-ring reached from an acyclic domain 0.
func TestCyclicGroupPanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		edges [][2]int
		cycle []int
	}{
		{"2-cycle", [][2]int{{0, 1}, {1, 0}}, []int{0, 1}},
		{"3-ring", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}}, []int{1, 2, 3}},
	} {
		g := NewGroup(2)
		var ds []*Domain
		fired := 0
		for _, e := range c.edges {
			for len(ds) <= max(e[0], e[1]) {
				d := g.AddDomain(sim.New(int64(len(ds) + 1)))
				d.OnFlight(func(Flight) { fired++ })
				d.Eng.Schedule(0, func() { fired++ })
				ds = append(ds, d)
			}
			g.Connect(ds[e[0]], ds[e[1]], 0, sim.Microsecond)
		}
		func() {
			defer func() {
				r := fmt.Sprint(recover())
				var id int
				if _, err := fmt.Sscanf(r, "shard: link graph has a cycle through domain %d", &id); err != nil || !slices.Contains(c.cycle, id) {
					t.Errorf("%s: Run recovered %q, want the cycle panic naming one of domains %v", c.name, r, c.cycle)
				}
			}()
			g.Run()
		}()
		if fired != 0 {
			t.Errorf("%s: %d events fired before the cycle was rejected", c.name, fired)
		}
	}
}

// TestFlightMergeOrder pins the (At, From, Seq) merge: two source
// domains emit flights landing at the same instant, and the destination
// must observe the lower domain id first, then reservation order.
func TestFlightMergeOrder(t *testing.T) {
	g := NewGroup(1)
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
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestHeterogeneousPropDelivery checks the inbox against its landing
// events: with two inbound links of very different propagation delays,
// the flight sent later lands first, and each landing event must
// deliver its own flight — its own At and Arg — at every lane count.
func TestHeterogeneousPropDelivery(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		g := NewGroup(lanes)
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
		// slow emits at t=0, landing At=100; fast emits at t=2, landing
		// At=3.
		slow.Eng.Schedule(0, func() { ls.Send(Flight{Arg: 7}) })
		fast.Eng.Schedule(2*sim.Nanosecond, func() { lf.Send(Flight{Arg: 9}) })
		g.Run()
		want := []string{"9@3", "7@100"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d: deliveries %v, want %v", lanes, got, want)
		}
	}
}

// TestSameInstantLandingOrder pins the landing tie rule: a flight
// landing at the same instant as a local event on its destination fires
// after it, even when the local event is scheduled after the flight was
// drained. The flight is drained before the destination's engine runs;
// the local event at 10 ns is scheduled by an event at `at`, after the
// drain. A drain-time sequence number would order the landing first.
func TestSameInstantLandingOrder(t *testing.T) {
	for _, at := range []sim.Time{0, 5 * sim.Nanosecond} {
		g := NewGroup(1)
		src := g.AddDomain(sim.New(1))
		dst := g.AddDomain(sim.New(2))
		l := g.Connect(src, dst, 0, 10*sim.Nanosecond)
		var got []string
		dst.OnFlight(func(f Flight) {
			got = append(got, fmt.Sprintf("land@%d", int64(dst.Eng.Now())))
		})
		src.Eng.Schedule(0, func() { l.Send(Flight{Arg: 1}) })
		dst.Eng.Schedule(at, func() {
			dst.Eng.Schedule(10*sim.Nanosecond, func() {
				got = append(got, fmt.Sprintf("local@%d", int64(dst.Eng.Now())))
			})
		})
		g.Run()
		want := []string{"local@10", "land@10"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scheduler at %v: order %v, want %v", at, got, want)
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
// shape: leaves into one hub run as two waves.
func TestStarRunsInTwoWaves(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		g, _, landed := star(lanes, 4, 10)
		g.Run()
		if g.ranWaves != 2 || *landed != 40 {
			t.Errorf("lanes=%d: %d waves, %d landings; want 2, 40", lanes, g.ranWaves, *landed)
		}
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
// zero-delay links are design errors, not runtime states.
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
// package level: after a warm-up run, re-running a three-domain chain
// (every landing on the middle domain forwarded to the last) on
// recycled engines must not allocate per flight (flight slices, inboxes
// and heap slots all recycle). The root-level TestAllocBudgetShardedSend
// covers the full cluster-on-shard path.
func TestGroupAllocFreeWarm(t *testing.T) {
	engA, engB, engC := sim.New(1), sim.New(2), sim.New(3)
	g := NewGroup(1)
	a, b, c := g.AddDomain(engA), g.AddDomain(engB), g.AddDomain(engC)
	ab := g.Connect(a, b, 100, 2*sim.Microsecond)
	bc := g.Connect(b, c, 100, 2*sim.Microsecond)
	var n int
	b.OnFlight(func(f Flight) { bc.Send(Flight{Len: 64}) })
	c.OnFlight(func(f Flight) { n++ })
	seed := int64(0)
	trial := func() {
		seed++
		engA.Reset(seed)
		engB.Reset(seed + 1)
		engC.Reset(seed + 2)
		g.Rewind()
		n = 0
		for k := 0; k < 256; k++ {
			ab.Send(Flight{Len: 64})
		}
		g.Run()
	}
	trial()
	if n != 256 {
		t.Fatalf("%d flights reached the chain's end, want 256", n)
	}
	if avg := testing.AllocsPerRun(10, trial); avg > 2 {
		t.Errorf("warm group trial allocates %.0f/run, want ≤ 2 (per-flight garbage on the handoff path)", avg)
	}
}
