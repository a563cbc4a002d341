package fabric

import (
	"fmt"
	"slices"
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

func pair(t *testing.T, cfg Config) (*sim.Engine, *Fabric, *Port, *Port, *[]*packet.Packet, *[]*packet.Packet) {
	t.Helper()
	eng := sim.New(1)
	f := New(eng, cfg)
	var atA, atB []*packet.Packet
	a := f.AttachPort(1, "A", func(p *packet.Packet) { atA = append(atA, p) })
	b := f.AttachPort(2, "B", func(p *packet.Packet) { atB = append(atB, p) })
	return eng, f, a, b, &atA, &atB
}

func TestDelivery(t *testing.T) {
	eng, f, a, _, _, atB := pair(t, DefaultConfig())
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 7})
	eng.Run()
	if len(*atB) != 1 {
		t.Fatalf("B received %d packets", len(*atB))
	}
	if (*atB)[0].PSN != 7 {
		t.Error("wrong packet delivered")
	}
	if (*atB)[0].SLID != 1 {
		t.Error("SLID not stamped")
	}
	if f.Delivered != 1 || f.Sent != 1 || f.Dropped != 0 {
		t.Errorf("counters: sent=%d delivered=%d dropped=%d", f.Sent, f.Delivered, f.Dropped)
	}
}

func TestDeliveryLatencyRange(t *testing.T) {
	cfg := Config{PropDelay: 2 * sim.Microsecond, BandwidthGbps: 56, DelayJitter: 0.05}
	eng, _, a, _, _, atB := pair(t, cfg)
	var at sim.Time
	eng.Go("send", func(p *sim.Proc) {
		a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2})
	})
	eng.Run()
	at = eng.Now()
	if len(*atB) != 1 {
		t.Fatal("no delivery")
	}
	// 42B at 56Gb/s = 6ns serialization; prop 2µs ±5%.
	if at < sim.Time(1900*sim.Nanosecond) || at > sim.Time(2200*sim.Nanosecond) {
		t.Errorf("delivery at %v, want ≈2µs", at)
	}
}

func TestUnknownDLIDDropped(t *testing.T) {
	eng, f, a, _, _, atB := pair(t, DefaultConfig())
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 99})
	eng.Run()
	if len(*atB) != 0 {
		t.Error("packet to unknown LID delivered")
	}
	if f.Dropped != 1 {
		t.Errorf("Dropped = %d", f.Dropped)
	}
}

func TestDropFilter(t *testing.T) {
	eng, f, a, _, _, atB := pair(t, DefaultConfig())
	f.SetDropFilter(func(p *packet.Packet) bool { return p.PSN == 1 })
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 0})
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 1})
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 2})
	eng.Run()
	if len(*atB) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(*atB))
	}
	for _, p := range *atB {
		if p.PSN == 1 {
			t.Error("filtered packet delivered")
		}
	}
	f.SetDropFilter(nil)
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 1})
	eng.Run()
	if len(*atB) != 3 {
		t.Error("clearing the filter should restore delivery")
	}
}

func TestRandomLoss(t *testing.T) {
	eng, f, a, _, _, atB := pair(t, DefaultConfig())
	f.SetLossRate(0.5)
	for i := 0; i < 1000; i++ {
		a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: uint32(i)})
	}
	eng.Run()
	n := len(*atB)
	if n < 400 || n > 600 {
		t.Errorf("with 50%% loss, delivered %d/1000", n)
	}
	if f.Dropped+f.Delivered != f.Sent {
		t.Error("counter conservation violated")
	}
}

func TestFIFOOrderingDespiteJitter(t *testing.T) {
	cfg := Config{PropDelay: 2 * sim.Microsecond, BandwidthGbps: 56, DelayJitter: 0.5}
	eng, _, a, _, _, atB := pair(t, cfg)
	for i := 0; i < 200; i++ {
		i := i
		eng.At(sim.Time(i)*10*sim.Nanosecond, func() {
			a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: uint32(i)})
		})
	}
	eng.Run()
	if len(*atB) != 200 {
		t.Fatalf("delivered %d", len(*atB))
	}
	for i, p := range *atB {
		if p.PSN != uint32(i) {
			t.Fatalf("delivery out of order at %d: PSN %d", i, p.PSN)
		}
	}
}

func TestTapSeesDrops(t *testing.T) {
	eng, f, a, _, _, _ := pair(t, DefaultConfig())
	var evs []TapEvent
	f.AddTap(func(ev TapEvent) { evs = append(evs, ev) })
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2})
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 77})
	eng.Run()
	if len(evs) != 2 {
		t.Fatalf("tap saw %d events", len(evs))
	}
	if evs[0].Dropped || evs[0].SrcName != "A" || evs[0].DstName != "B" {
		t.Errorf("first event wrong: %+v", evs[0])
	}
	if !evs[1].Dropped || evs[1].Reason != "unknown DLID" {
		t.Errorf("second event should be a drop: %+v", evs[1])
	}
}

func TestDuplicateLIDPanics(t *testing.T) {
	eng := sim.New(1)
	f := New(eng, DefaultConfig())
	f.AttachPort(5, "x", func(*packet.Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate LID should panic")
		}
	}()
	f.AttachPort(5, "y", func(*packet.Packet) {})
}

func TestBytesCounter(t *testing.T) {
	eng, f, a, _, _, _ := pair(t, DefaultConfig())
	p := &packet.Packet{Opcode: packet.OpReadRequest, DLID: 2}
	a.Send(p)
	eng.Run()
	if f.BytesSent != uint64(p.WireSize()) {
		t.Errorf("BytesSent = %d, want %d", f.BytesSent, p.WireSize())
	}
}

func TestSerializationScalesWithSize(t *testing.T) {
	cfg := Config{PropDelay: 0, BandwidthGbps: 1, DelayJitter: 0} // 1 bit/ns
	eng, _, a, _, _, atB := pair(t, cfg)
	big := &packet.Packet{Opcode: packet.OpReadRespMiddle, PayloadLen: 4096, DLID: 2}
	a.Send(big)
	eng.Run()
	want := sim.Time(big.WireSize() * 8)
	if eng.Now() != want {
		t.Errorf("serialization of %dB at 1Gb/s took %v, want %v", big.WireSize(), eng.Now(), want)
	}
	if len(*atB) != 1 {
		t.Error("no delivery")
	}
}

// selfReplyTrace sends burst packets from LID 1 to itself; the first
// replies landings each send one more from inside their handler, onto
// the delay line they are landing from. It returns every landing as
// "psn@instant" after drive.
func selfReplyTrace(t *testing.T, burst, replies int, drive func(*sim.Engine)) []string {
	t.Helper()
	eng := sim.New(1)
	f := New(eng, DefaultConfig())
	var a *Port
	var trace []string
	psn := uint32(burst)
	a = f.AttachPort(1, "A", func(p *packet.Packet) {
		trace = append(trace, fmt.Sprintf("%d@%v", p.PSN, eng.Now()))
		if psn < uint32(burst+replies) {
			a.Send(&packet.Packet{Opcode: packet.OpWriteOnly, DLID: 1, PSN: psn})
			psn++
		}
	})
	for i := 0; i < burst; i++ {
		a.Send(&packet.Packet{Opcode: packet.OpWriteOnly, DLID: 1, PSN: uint32(i)})
	}
	drive(eng)
	if n := uint64(burst + replies); f.Sent != n || f.Delivered != n || eng.QueueLen() != 0 {
		t.Fatalf("sent %d, delivered %d, %d events left; want %d, %d, 0", f.Sent, f.Delivered, eng.QueueLen(), n, n)
	}
	return trace
}

// TestHandlerSendsOntoItsOwnLine checks a port that replies to its own
// LID from its handler, so the reply joins the delay line the packet is
// landing from. With one packet in flight the line is empty when the
// handler runs and the reply arms it; with four the reply queues behind
// flights that land in place. Either way every packet lands once, and
// Run lands them in the order and at the instants a Step loop does.
func TestHandlerSendsOntoItsOwnLine(t *testing.T) {
	for _, burst := range []int{1, 4} {
		want := selfReplyTrace(t, burst, 6, func(e *sim.Engine) {
			for e.Step() {
			}
		})
		got := selfReplyTrace(t, burst, 6, func(e *sim.Engine) { e.Run() })
		if !slices.Equal(got, want) {
			t.Fatalf("burst %d: Run landed %v, a Step loop %v", burst, got, want)
		}
	}
}
