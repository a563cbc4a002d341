package shard

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	out := make([][]*Link, len(ds))
	traces := make([][]string, len(ds))
	for i := range ds {
		ds[i] = g.AddDomain(int64(i+1), func(d *Domain) {
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
		}, nil)
	}
	for k, e := range edges {
		prop := sim.Time(1+k%3) * sim.Microsecond
		out[e[0]] = append(out[e[0]], g.Connect(ds[e[0]], ds[e[1]], 100, prop))
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
		built := 0
		for _, e := range c.edges {
			for len(ds) <= max(e[0], e[1]) {
				d := g.AddDomain(int64(len(ds)+1), func(d *Domain) {
					built++
					d.OnFlight(func(Flight) {})
				}, nil)
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
		if built != 0 {
			t.Errorf("%s: %d domains built before the cycle was rejected", c.name, built)
		}
	}
}

// TestFlightMergeOrder pins the (At, From, Seq) merge: two source
// domains emit flights landing at the same instant, and the destination
// must observe the lower domain id first, then reservation order,
// whether the sources run one after the other or side by side.
func TestFlightMergeOrder(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		g := NewGroup(lanes)
		var l0, l1 *Link
		// Each source sends two flights from its build; all land at t=1µs.
		sendTwo := func(l **Link) func(*Domain) {
			return func(*Domain) {
				(*l).Send(Flight{Arg: 0})
				(*l).Send(Flight{Arg: 1})
			}
		}
		s0 := g.AddDomain(1, sendTwo(&l0), nil)
		s1 := g.AddDomain(2, sendTwo(&l1), nil)
		dst := g.AddDomain(3, nil, nil)
		l0 = g.Connect(s0, dst, 0, sim.Microsecond) // latency-only: same landing instants
		l1 = g.Connect(s1, dst, 0, sim.Microsecond)
		var got []string
		dst.OnFlight(func(f Flight) {
			got = append(got, fmt.Sprintf("%d/%d", f.From, f.Arg))
		})
		g.Run()
		want := []string{"0/0", "0/1", "1/0", "1/1"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d: merge order %v, want %v", lanes, got, want)
		}
	}
}

// TestHeterogeneousPropDelivery checks the inbox against its landing
// events: with two inbound links of very different propagation delays,
// the flight sent later lands first, and each landing event must
// deliver its own flight — its own At and Arg — at every lane count.
func TestHeterogeneousPropDelivery(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		g := NewGroup(lanes)
		var ls, lf *Link
		// slow emits at t=0, landing At=100; fast emits at t=2, landing
		// At=3.
		slow := g.AddDomain(1, func(d *Domain) {
			d.Eng.Schedule(0, func() { ls.Send(Flight{Arg: 7}) })
		}, nil)
		fast := g.AddDomain(2, func(d *Domain) {
			d.Eng.Schedule(2*sim.Nanosecond, func() { lf.Send(Flight{Arg: 9}) })
		}, nil)
		var got []string
		dst := g.AddDomain(3, func(d *Domain) {
			d.OnFlight(func(f Flight) {
				got = append(got, fmt.Sprintf("%d@%d", f.Arg, int64(d.Eng.Now())))
				if d.Eng.Now() != f.At {
					t.Errorf("lanes=%d: flight Arg=%d stamped At=%d delivered at %d",
						lanes, f.Arg, int64(f.At), int64(d.Eng.Now()))
				}
			})
		}, nil)
		ls = g.Connect(slow, dst, 0, 100*sim.Nanosecond)
		lf = g.Connect(fast, dst, 0, sim.Nanosecond)
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
		var l *Link
		var got []string
		src := g.AddDomain(1, func(d *Domain) {
			d.Eng.Schedule(0, func() { l.Send(Flight{Arg: 1}) })
		}, nil)
		dst := g.AddDomain(2, func(d *Domain) {
			d.OnFlight(func(f Flight) {
				got = append(got, fmt.Sprintf("land@%d", int64(d.Eng.Now())))
			})
			d.Eng.Schedule(at, func() {
				d.Eng.Schedule(10*sim.Nanosecond, func() {
					got = append(got, fmt.Sprintf("local@%d", int64(d.Eng.Now())))
				})
			})
		}, nil)
		l = g.Connect(src, dst, 0, 10*sim.Nanosecond)
		g.Run()
		want := []string{"local@10", "land@10"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scheduler at %v: order %v, want %v", at, got, want)
		}
	}
}

// star builds leaves domains each sending one flight per local event to
// a hub (domain 0), and returns the group, the hub and the hub's
// landing count. Every domain's build ends with extra, when it is not
// nil.
func star(lanes, leaves, events int, extra func(*Domain)) (*Group, *Domain, *int) {
	g := NewGroup(lanes)
	hub := g.AddDomain(1, extra, nil)
	landed := new(int)
	hub.OnFlight(func(Flight) { *landed++ })
	for i := 1; i <= leaves; i++ {
		var l *Link
		d := g.AddDomain(int64(i+1), func(d *Domain) {
			for k := 0; k < events; k++ {
				d.Eng.Schedule(sim.Time(k)*sim.Microsecond, func() { l.Send(Flight{Len: 64}) })
			}
			if extra != nil {
				extra(d)
			}
		}, nil)
		l = g.Connect(d, hub, 25, 2*sim.Microsecond)
	}
	return g, hub, landed
}

// TestStarRunsInTwoWaves checks the wave schedule on kv-serve's link
// shape: leaves into one hub run as two waves.
func TestStarRunsInTwoWaves(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		g, _, landed := star(lanes, 4, 10, nil)
		g.Run()
		if g.ranWaves != 2 || *landed != 40 {
			t.Errorf("lanes=%d: %d waves, %d landings; want 2, 40", lanes, g.ranWaves, *landed)
		}
	}
}

// TestStopEndsWave checks Stop on the wave path: a leaf stopping its
// engine ends the group run once its wave is done, so the hub's wave
// never starts. A rerun without the Stop lands only its own flights,
// none of those the stopped run left on the links.
func TestStopEndsWave(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		stop, hubBuilt, pending := true, false, 0
		g, _, landed := star(lanes, 3, 10, func(d *Domain) {
			switch d.ID() {
			case 0:
				hubBuilt = true
			case 2:
				if stop {
					d.Eng.Schedule(3*sim.Microsecond, d.Eng.Stop)
				}
			}
		})
		g.domains[2].done = func(d *Domain) { pending = d.Eng.QueueLen() }
		g.Run()
		if g.ranWaves != 1 || *landed != 0 || hubBuilt {
			t.Errorf("lanes=%d: %d waves and %d hub landings after Stop (hub built: %v), want 1 and 0", lanes, g.ranWaves, *landed, hubBuilt)
		}
		if pending == 0 {
			t.Errorf("lanes=%d: the stopped leaf ran dry", lanes)
		}
		stop = false
		g.Run()
		if g.ranWaves != 2 || *landed != 30 {
			t.Errorf("lanes=%d: the rerun ran %d waves and landed %d flights, want 2 and 30", lanes, g.ranWaves, *landed)
		}
	}
}

// TestStoppedDomainLeavesNothingToNext checks the lane engine's hand-
// off after a Stop: on one lane, the domain after one that stopped with
// events and a sleeping process still pending starts on a clean engine
// — time zero, nothing queued, not stopped — and fires only its own
// events.
func TestStoppedDomainLeavesNothingToNext(t *testing.T) {
	g := NewGroup(1)
	var fired []string
	g.AddDomain(1, func(d *Domain) {
		for k := 1; k <= 5; k++ {
			d.Eng.Schedule(sim.Time(k)*sim.Microsecond, func() { fired = append(fired, fmt.Sprintf("a%d", k)) })
		}
		d.Eng.Go("sleeper", func(p *sim.Proc) { p.Sleep(sim.Millisecond) })
		d.Eng.Schedule(2*sim.Microsecond, d.Eng.Stop)
	}, nil)
	g.AddDomain(2, func(d *Domain) {
		if d.Eng.Now() != 0 || d.Eng.QueueLen() != 0 || d.Eng.Stopped() {
			t.Errorf("second domain built on an engine at %v with %d events queued (stopped: %v)",
				d.Eng.Now(), d.Eng.QueueLen(), d.Eng.Stopped())
		}
		d.Eng.Schedule(10*sim.Microsecond, func() { fired = append(fired, "b") })
	}, nil)
	g.Run()
	if want := []string{"a1", "a2", "b"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// TestLaneEngines pins who owns the engines: on one lane every domain is
// built on the same engine, on N lanes at most N engines appear, and a
// rerun builds on the engines the first run left.
func TestLaneEngines(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		var mu sync.Mutex
		seen := map[*sim.Engine]bool{}
		g, _, _ := star(lanes, 6, 4, func(d *Domain) {
			mu.Lock()
			seen[d.Eng] = true
			mu.Unlock()
		})
		g.Run()
		first := len(seen)
		if lanes == 1 && first != 1 || first > lanes {
			t.Errorf("lanes=%d: the domains ran on %d engines", lanes, first)
		}
		g.Run()
		if len(seen) != first {
			t.Errorf("lanes=%d: a rerun added %d engines", lanes, len(seen)-first)
		}
	}
}

// TestWavePanicReraised checks that a panic on a lane inside a wave
// surfaces from Run with its value.
func TestWavePanicReraised(t *testing.T) {
	g, hub, _ := star(3, 4, 2, nil)
	hub.OnFlight(func(Flight) { panic("hub failure") })
	defer func() {
		if r := recover(); r != "hub failure" {
			t.Fatalf("Run recovered %v, want the hub's panic", r)
		}
	}()
	g.Run()
}

// TestRerunClearsPanicState checks that a lane panic captured in one
// run cannot be re-raised by a rerun (the sync.Once would otherwise
// stay consumed and mask the rerun's own outcome), and that the rerun
// lands only its own two flights, not the one the panic left in the
// inbox.
func TestRerunClearsPanicState(t *testing.T) {
	g := NewGroup(2)
	var ab *Link
	a := g.AddDomain(1, func(*Domain) {
		ab.Send(Flight{Len: 64})
		ab.Send(Flight{Len: 64})
	}, nil)
	b := g.AddDomain(2, nil, nil)
	ab = g.Connect(a, b, 100, sim.Microsecond)
	boom, landed := true, 0
	b.OnFlight(func(f Flight) {
		landed++
		if boom {
			panic("first-run failure")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first run did not surface the lane panic")
			}
		}()
		g.Run()
	}()
	boom, landed = false, 0
	g.Run() // must not re-panic with the stale first-run value
	if landed != 2 {
		t.Errorf("the rerun landed %d flights, want 2", landed)
	}
}

// TestLinkSerialization checks the egress cursor: back-to-back flights
// on one link land spaced by their serialization time, not stacked on
// the same instant.
func TestLinkSerialization(t *testing.T) {
	g := NewGroup(1)
	var l *Link
	src := g.AddDomain(1, func(*Domain) {
		l.Send(Flight{Len: 1000})
		l.Send(Flight{Len: 1000})
	}, nil)
	dst := g.AddDomain(2, nil, nil)
	l = g.Connect(src, dst, 8, sim.Microsecond) // 8 Gb/s = 1 ns/byte
	var at []sim.Time
	dst.OnFlight(func(f Flight) { at = append(at, dst.Eng.Now()) })
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
			g.AddDomain(int64(i), func(d *Domain) {
				end := sim.Time(i+1) * sim.Millisecond
				d.Eng.Schedule(end, func() { done[i] = d.Eng.Now() })
			}, nil)
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
	g.AddDomain(1, func(d *Domain) {
		c := sim.NewCond(d.Eng)
		d.Eng.Go("stuck", func(p *sim.Proc) {
			p.Wait(c, func() bool { return false }) // nobody will ever signal
		})
	}, nil)
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
// the wave path: a domain of a star parks a process forever, and
// MustRun must name it — the hub in the last wave, or the first leaf,
// whose lane engine the next leaf would reset (which panics on a live
// process) if the check came any later.
func TestMustRunNamesDeadlockedWaveDomain(t *testing.T) {
	for _, c := range []struct{ lanes, stuck int }{{2, 0}, {1, 0}, {1, 1}} {
		g, _, _ := star(c.lanes, 3, 2, func(d *Domain) {
			if d.ID() != c.stuck {
				return
			}
			cond := sim.NewCond(d.Eng)
			d.Eng.Go("stuck", func(p *sim.Proc) {
				p.Wait(cond, func() bool { return false })
			})
		})
		func() {
			defer func() {
				r := fmt.Sprint(recover())
				if want := fmt.Sprintf("domain %d ", c.stuck); !strings.Contains(r, "deadlock") || !strings.Contains(r, want) {
					t.Errorf("lanes=%d: MustRun panicked with %q, want a deadlock naming domain %d", c.lanes, r, c.stuck)
				}
			}()
			g.MustRun()
		}()
	}
}

// TestConnectValidation pins the constructor panics: self-links and
// zero-delay links are design errors, not runtime states.
func TestConnectValidation(t *testing.T) {
	g := NewGroup(1)
	a := g.AddDomain(1, nil, nil)
	b := g.AddDomain(2, nil, nil)
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
// (every landing on the middle domain forwarded to the last) on the
// lane's recycled engine must not allocate per flight (flight slices,
// inboxes and heap slots all recycle). The root-level
// TestAllocBudgetShardedSend covers the full cluster-on-shard path.
func TestGroupAllocFreeWarm(t *testing.T) {
	g := NewGroup(1)
	var ab, bc *Link
	a := g.AddDomain(1, func(*Domain) {
		for k := 0; k < 256; k++ {
			ab.Send(Flight{Len: 64})
		}
	}, nil)
	b, c := g.AddDomain(2, nil, nil), g.AddDomain(3, nil, nil)
	ab = g.Connect(a, b, 100, 2*sim.Microsecond)
	bc = g.Connect(b, c, 100, 2*sim.Microsecond)
	var n int
	b.OnFlight(func(f Flight) { bc.Send(Flight{Len: 64}) })
	c.OnFlight(func(f Flight) { n++ })
	trial := func() {
		n = 0
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
