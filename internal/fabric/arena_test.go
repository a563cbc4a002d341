package fabric

import (
	"reflect"
	"slices"
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// arrival is one packet landing at a test fabric's LID 2.
type arrival struct {
	psn uint32
	at  sim.Time
}

// TestArenaTwoFabricsOneEngine checks the fabric's engine-generation
// arenas with two fabrics side by side on one engine. Within a
// generation they attach the same LIDs without sharing a port, a LID
// table or a delay line. After a Reset each fabric takes its own tables
// back, cleared of the previous run's ports and in-flight deliveries,
// and delivers exactly as a fresh fabric on a fresh engine.
func TestArenaTwoFabricsOneEngine(t *testing.T) {
	cfg := Config{PropDelay: 2 * sim.Microsecond, BandwidthGbps: 56, DelayJitter: 0.05}
	// attach builds a fabric with LIDs 1 and 2, plus extra when nonzero;
	// got collects the arrivals at LID 2.
	attach := func(eng *sim.Engine, extra uint16, got *[]arrival) *Fabric {
		f := New(eng, cfg)
		f.AttachPort(1, "src", func(*packet.Packet) {})
		f.AttachPort(2, "dst", func(p *packet.Packet) { *got = append(*got, arrival{p.PSN, eng.Now()}) })
		if extra != 0 {
			f.AttachPort(extra, "extra", func(*packet.Packet) {})
		}
		return f
	}
	// send posts n back-to-back packets from LID 1 to LID 2.
	send := func(f *Fabric, psn uint32, n int) {
		for i := 0; i < n; i++ {
			p := f.Pool().Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = psn + uint32(i)
			f.ports[1].Send(p)
		}
	}

	eng := sim.New(1)
	var gotA, gotB []arrival
	fa := attach(eng, 9, &gotA)
	fb := attach(eng, 0, &gotB)
	send(fa, 100, 4)
	send(fb, 200, 4)
	if fa.tables == fb.tables || &fa.ports[0] == &fb.ports[0] {
		t.Fatal("two fabrics of one generation share their LID tables")
	}
	if fa.ports[1].line == fb.ports[1].line {
		t.Fatal("two fabrics of one generation share a delay line")
	}
	ports := []*Port{fa.ports[1], fa.ports[2], fa.ports[9], fb.ports[1], fb.ports[2]}
	for i, p := range ports {
		if slices.Index(ports, p) != i {
			t.Fatalf("two attachments of one generation got the same port %p", p)
		}
	}
	eng.Run()
	if len(gotA) != 4 || len(gotB) != 4 || gotA[0].psn != 100 || gotB[0].psn != 200 {
		t.Fatalf("each fabric must deliver only its own packets: A got %v, B got %v", gotA, gotB)
	}
	// Twice: leave packets in flight on both delay lines, abandon the
	// run, and rebuild. The second round sees whether the first kept the
	// port arena's chain intact.
	for round, seed := range []int64{7, 8} {
		send(fa, 104, 2)
		send(fb, 204, 2)
		eng.Reset(seed)

		gotA, gotB = nil, nil
		ra := attach(eng, 0, &gotA)
		rb := attach(eng, 0, &gotB)
		if ra.tables != fa.tables || rb.tables != fb.tables {
			t.Fatalf("round %d: after Reset each fabric must take back its own tables, in the order they were first taken", round)
		}
		for _, f := range []*Fabric{ra, rb} {
			for lid, p := range f.ports {
				if (p != nil) != (lid == 1 || lid == 2) {
					t.Errorf("round %d: recycled LID table holds %v at LID %d", round, p, lid)
				}
			}
			for key, l := range f.lines {
				if l.n != 0 {
					t.Errorf("round %d: recycled delay line %#x holds %d deliveries", round, key, l.n)
				}
			}
		}
		// The port arena hands the first run's ports back in the order
		// they were taken, so AttachPort's reset kept each arena link.
		if got := []*Port{ra.ports[1], ra.ports[2], rb.ports[1], rb.ports[2]}; !slices.Equal(got, ports[:4]) {
			t.Fatalf("round %d: rebuilt fabrics attached ports %v, want %v in order", round, got, ports[:4])
		}
		send(ra, 100, 4)
		send(rb, 200, 4)
		eng.Run()

		fresh := sim.New(seed)
		var wantA, wantB []arrival
		fra := attach(fresh, 0, &wantA)
		frb := attach(fresh, 0, &wantB)
		send(fra, 100, 4)
		send(frb, 200, 4)
		fresh.Run()
		if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
			t.Errorf("round %d: recycled fabrics delivered A %v, B %v; fresh ones A %v, B %v", round, gotA, gotB, wantA, wantB)
		}
		fa, fb = ra, rb
	}
}

// TestArenaRecycledFabricIsFresh: a fabric taken back from the arena
// after a Reset keeps nothing of its last run (taps, loss rate, drop
// filter, switched network, counters) and keeps its arena link, so over
// two Resets the generation's two fabrics come back in order.
func TestArenaRecycledFabricIsFresh(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	first, second := New(eng, cfg), New(eng, cfg)
	for round := int64(2); round <= 3; round++ {
		src := first.AttachPort(1, "src", func(*packet.Packet) {})
		first.AttachPort(2, "dst", func(*packet.Packet) {})
		first.EnableCongestion(congestion.DefaultConfig())
		first.AddTap(func(TapEvent) {})
		first.SetDropFilter(func(p *packet.Packet) bool { return p.PSN%2 == 0 })
		first.SetLossRate(0.25)
		for i := 0; i < 16; i++ {
			p := first.Pool().Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = uint32(i)
			src.Send(p)
		}
		eng.Run()
		if first.Sent == 0 || first.Dropped == 0 {
			t.Fatalf("round %d moved no counters: sent %d, dropped %d", round, first.Sent, first.Dropped)
		}

		eng.Reset(round)
		cfg = Config{PropDelay: sim.Time(round) * sim.Microsecond, BandwidthGbps: 100}
		f := New(eng, cfg)
		if f != first || New(eng, cfg) != second {
			t.Fatalf("round %d: after Reset the fabric arena must hand back the last run's fabrics in order", round)
		}
		if f.eng != eng || f.cfg != cfg {
			t.Errorf("round %d: recycled fabric runs on %p with %+v, want %p with %+v", round, f.eng, f.cfg, eng, cfg)
		}
		// Every field New neither sets nor fills from the scratch is zero.
		v := reflect.ValueOf(f).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch name := v.Type().Field(i).Name; name {
			case "eng", "cfg", "tel", "scratch", "pool", "tables", "ports", "lines", "arenaNext":
			default:
				if !v.Field(i).IsZero() {
					t.Errorf("round %d: recycled fabric keeps %s from its last run", round, name)
				}
			}
		}
	}
}
