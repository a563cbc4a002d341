package fabric

import (
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// refFlight is one packet in flight in FuzzDeliveryOrder's reference
// model.
type refFlight struct {
	id       uint32
	src, dst uint16
	at       sim.Time
	reply    bool
}

// FuzzDeliveryOrder drives the fabric with sends over a few ports and
// pairs (plus unattached LIDs, which drop), random packet sizes,
// jittered propagation, interleaved engine steps, replies sent from inside delivery handlers and engine
// resets that abandon packets in flight. Every landing is checked against
// a reference model that keeps an explicit per-pair lastArrival map: a
// packet's deadline is its jittered arrival clamped to the pair's
// previous deadline, and packets land in (deadline, send order) order,
// each at exactly its deadline. The reference draws its jitter from a
// second engine seeded like the fabric's, so both see the same stream.
func FuzzDeliveryOrder(f *testing.F) {
	f.Add([]byte{40, 200, 1, 0, 0, 1, 9, 0, 0, 1, 2, 0, 4, 0, 1, 1, 3})
	f.Add([]byte{0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 1, 0, 2, 8})
	f.Add([]byte{10, 90, 3, 1, 1, 2, 255, 3, 7, 2, 5, 1, 3, 1, 4, 33, 0, 3, 0, 9, 5, 7, 0, 2, 1, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		next := 0
		arg := func() byte {
			if next >= len(prog) {
				return 0
			}
			next++
			return prog[next-1]
		}
		cfg := Config{
			PropDelay:     sim.Time(50+8*int(arg())) * sim.Nanosecond,
			BandwidthGbps: 56,
			DelayJitter:   0.05 + float64(arg())/256,
		}
		arg() // a reserved byte, consumed so the committed seeds keep their send programs
		lids := [...]uint16{1, 2, 3, 200}
		dsts := [...]uint16{1, 2, 3, 200, 9, 1000} // the last two are unattached

		eng, ref := sim.New(1), sim.New(1)
		var (
			fab     *Fabric
			ports   map[uint16]*Port
			pending []refFlight // in send order, which is engine sequence order
			last    map[[2]uint16]sim.Time
			nextID  uint32
		)
		var send func(src, dst uint16, payload int, reply bool)
		land := func(lid uint16) Handler {
			return func(p *packet.Packet) {
				k := -1
				for i := range pending {
					if k < 0 || pending[i].at < pending[k].at {
						k = i
					}
				}
				if k < 0 {
					t.Fatalf("packet %d landed at LID %d with nothing in flight", p.PSN, lid)
				}
				want := pending[k]
				if p.PSN != want.id || lid != want.dst || p.SLID != want.src || eng.Now() != want.at {
					t.Fatalf("landed packet %d %d→%d at %v, want packet %d %d→%d at %v",
						p.PSN, p.SLID, lid, eng.Now(), want.id, want.src, want.dst, want.at)
				}
				pending = append(pending[:k], pending[k+1:]...)
				if want.reply {
					send(lid, want.src, 0, false)
				}
			}
		}
		build := func() {
			fab = New(eng, cfg)
			ports = map[uint16]*Port{}
			for _, lid := range lids {
				ports[lid] = fab.AttachPort(lid, "", land(lid))
			}
			pending = nil
			last = map[[2]uint16]sim.Time{}
		}
		send = func(src, dst uint16, payload int, reply bool) {
			pkt := fab.Pool().Get()
			pkt.Opcode = packet.OpWriteOnly
			pkt.PayloadLen = payload
			pkt.DLID = dst
			pkt.PSN = nextID
			nextID++
			if ports[dst] != nil {
				at := eng.Now() + fab.serialization(pkt.WireSize()) + ref.Jitter(cfg.PropDelay, cfg.DelayJitter)
				key := [2]uint16{src, dst}
				at = max(at, last[key])
				last[key] = at
				pending = append(pending, refFlight{id: pkt.PSN, src: src, dst: dst, at: at, reply: reply})
			}
			ports[src].Send(pkt)
		}

		build()
		for next < len(prog) {
			switch code := arg(); code % 6 {
			case 0, 1, 2:
				src, dst, size := lids[arg()%4], dsts[arg()%6], arg()
				send(src, dst, 16*int(size), size&1 != 0)
			case 3:
				for n := arg()%4 + 1; n > 0; n-- {
					eng.Step()
				}
			case 4:
				eng.RunUntil(eng.Now() + sim.Time(arg())*16*sim.Nanosecond)
			case 5: // abandon the run: in-flight packets vanish with it
				seed := int64(arg())
				eng.Reset(seed)
				ref.Reset(seed)
				build()
			}
		}
		eng.Run()
		if len(pending) > 0 {
			t.Fatalf("%d packets never landed, first %+v", len(pending), pending[0])
		}
	})
}
