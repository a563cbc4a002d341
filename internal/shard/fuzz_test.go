package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// fuzzArg packs what a landing needs to check its own timing into the
// flight's payload word: the send instant, the sending domain and a
// per-domain send counter (which keeps every Arg unique).
func fuzzArg(sent sim.Time, from, n int) uint64 {
	return uint64(sent)<<24 | uint64(from)<<16 | uint64(n&0xffff)
}

// fuzzGroup decodes prog into a linked group of 2–6 domains and runs it
// on lanes lanes, each domain built on its lane's recycled engine. It
// returns each domain's trace — local firings,
// landings, and the follow-ups both schedule, each with Now, From and
// Arg. A cyclic program must be rejected before any engine runs, and
// returns no trace.
//
// The decoded program: the domain count; an acyclic or cyclic mode (a
// cyclic program always carries the 0⇄1 pair, an acyclic one only links
// that climb a rotated domain rank); per ordered pair, whether a link
// exists, its propagation delay and its rate; per domain, a handler send
// budget and local events at coarse instants that may send on one of the
// domain's outbound links and may schedule a follow-up. Every instant
// and delay is a multiple of 10 ns, so landings often tie local events,
// among them follow-ups scheduled after the landing was drained.
//
// Besides its timing, each landing is checked against the tie rule: an
// event that was already scheduled when a landing fired, and falls at
// the same instant, must have fired before it.
func fuzzGroup(t *testing.T, prog []byte, lanes int) (traces [][]string) {
	next := 0
	arg := func() int {
		if next >= len(prog) {
			return 0
		}
		next++
		return int(prog[next-1])
	}
	n := 2 + arg()%5
	cyclic := arg()&1 == 1
	rot := arg()
	g := NewGroup(lanes)
	ds := make([]*Domain, n)
	builds := make([]func(*Domain), n) // decoded below, after the links
	for i := range ds {
		ds[i] = g.AddDomain(int64(i+1), func(d *Domain) { builds[i](d) }, nil)
	}
	links := make([][]*Link, n) // outbound, in Connect order
	prop := make([][]sim.Time, n)
	for i := range prop {
		prop[i] = make([]sim.Time, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b, rate := arg(), arg()%4
			forced := cyclic && i+j == 1
			climbs := (i+rot)%n < (j+rot)%n
			if !forced && (b%3 != 0 || (!cyclic && !climbs)) {
				continue
			}
			prop[i][j] = sim.Time(10*(1+b/3%4)) * sim.Nanosecond
			gbps := [...]float64{0, 8, 25, 100}[rate]
			links[i] = append(links[i], g.Connect(ds[i], ds[j], gbps, prop[i][j]))
		}
	}

	traces = make([][]string, n)
	for i := range ds {
		budget := arg() % 8
		type local struct {
			at          sim.Time
			act, length int
		}
		var locals []local
		for k := arg() % 6; k > 0; k-- {
			at := sim.Time(10*(arg()%8)) * sim.Nanosecond
			act, length := arg(), arg()%64
			locals = append(locals, local{at, act, length})
		}
		builds[i] = func(d *Domain) {
			sends := 0
			// landAt and landIdx are the instant and trace index of the
			// domain's latest landing.
			landAt, landIdx := sim.Time(-1), -1
			send := func(pick, length int) {
				out := links[i]
				if len(out) == 0 {
					return
				}
				sends++
				out[pick%len(out)].Send(Flight{Len: length, Arg: fuzzArg(d.Eng.Now(), i, sends)})
			}
			record := func(kind string, from int, a uint64) {
				traces[i] = append(traces[i], fmt.Sprintf("%d %s %d %d", int64(d.Eng.Now()), kind, from, a))
			}
			// local records a local firing scheduled by the firing at
			// trace index by (-1 before the run).
			local := func(kind string, from int, a uint64, by int) {
				if d.Eng.Now() == landAt && by < landIdx {
					t.Errorf("domain %d: %s event scheduled by firing %d fired after the same-instant landing %d",
						i, kind, by, landIdx)
				}
				record(kind, from, a)
			}
			d.OnFlight(func(f Flight) {
				now := d.Eng.Now()
				sent := sim.Time(f.Arg >> 24)
				if now != f.At || now < sent+prop[f.From][i] {
					t.Errorf("domain %d: flight %d from %d sent at %v (prop %v) fired at %v, stamped At %v",
						i, f.Arg, f.From, sent, prop[f.From][i], now, f.At)
				}
				landAt, landIdx = now, len(traces[i])
				record("land", f.From, f.Arg)
				if f.Arg%3 == 0 {
					later := sim.Time(10*(f.Arg>>8%3)) * sim.Nanosecond
					by := landIdx
					d.Eng.Schedule(now+later, func() { local("echo", f.From, f.Arg, by) })
				}
				if budget > 0 {
					budget--
					send(int(f.Arg>>8), int(f.Arg%64))
				}
			})
			for _, l := range locals {
				d.Eng.Schedule(l.at, func() {
					by := len(traces[i])
					local("local", i, uint64(l.act), -1)
					if l.act%2 == 0 {
						send(l.act/2, l.length)
					}
					if later := sim.Time(10*(l.act/2%4)) * sim.Nanosecond; later > 0 {
						d.Eng.Schedule(d.Eng.Now()+later, func() { local("follow", i, uint64(l.act), by) })
					}
				})
			}
		}
	}
	if cyclic {
		defer func() {
			if r := fmt.Sprint(recover()); !strings.HasPrefix(r, "shard: link graph has a cycle") {
				t.Errorf("lanes=%d: cyclic link graph not rejected (recovered %s)", lanes, r)
			}
			for i, tr := range traces {
				if len(tr) > 0 {
					t.Errorf("lanes=%d: domain %d ran before the cycle was rejected", lanes, i)
				}
			}
			traces = nil
		}()
	}
	g.Run()
	return traces
}

// FuzzGroupOrder holds the group to one trace per domain whatever lane
// count runs it, 1 or 3, and to the tie rule between landings and
// same-instant local events, which is where drain timing could leak
// into the trace; the decoder makes such ties common. Cyclic programs
// must be rejected at both lane counts.
func FuzzGroupOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 3, 1, 3, 2, 0, 0, 0, 0, 4, 2, 0, 5, 1, 0, 9, 3, 2, 2, 4, 6})
	f.Add([]byte{2, 1, 0, 3, 2, 6, 0, 5, 3, 1, 4, 0, 2, 1, 3, 10, 4, 0, 1, 2, 5, 2, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		want := fuzzGroup(t, prog, 1)
		if got := fuzzGroup(t, prog, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=3 trace differs from lanes=1:\n got %q\nwant %q", got, want)
		}
	})
}
