package capture

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

func randomCapture(rng *rand.Rand, n int) *Capture {
	c := &Capture{}
	for i := 0; i < n; i++ {
		p := packet.Packet{
			SLID:          uint16(rng.Intn(16)),
			DLID:          uint16(rng.Intn(16)),
			Opcode:        packet.Opcode(rng.Intn(9)),
			PSN:           rng.Uint32() & 0xFFFFFF,
			AckPSN:        rng.Uint32() & 0xFFFFFF,
			DestQP:        rng.Uint32() % 1024,
			SrcQP:         rng.Uint32() % 1024,
			RemoteAddr:    rng.Uint64(),
			DMALen:        rng.Uint32() % 8192,
			Syndrome:      packet.Syndrome(rng.Intn(4)),
			RNRTimerNs:    int64(rng.Intn(10_000_000)),
			PayloadLen:    rng.Intn(4096),
			AckReq:        rng.Intn(2) == 0,
			DammingDoomed: rng.Intn(4) == 0,
		}
		c.records = append(c.records, Record{
			At:      sim.Time(rng.Int63n(1_000_000_000)),
			Pkt:     p,
			Dropped: rng.Intn(5) == 0,
		})
	}
	return c
}

// Property: WriteTrace → ReadTrace is lossless for every stored field.
func TestTraceRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		c := randomCapture(rng, n)
		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, r := range got {
			want := c.records[i]
			if r.At != want.At || r.Dropped != want.Dropped {
				return false
			}
			if !packetsEqual(r.Pkt, withoutUnstored(want.Pkt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// withoutUnstored zeroes the fields the binary format does not persist.
func withoutUnstored(p packet.Packet) packet.Packet {
	p.AppSeq = 0
	p.AppWords = nil
	p.AtomicSwap = 0
	p.AtomicCompare = 0
	p.AtomicOrig = 0
	return p
}

// packetsEqual compares packets field-wise (the struct holds a slice and
// cannot be compared with ==).
func packetsEqual(a, b packet.Packet) bool {
	if len(a.AppWords) != len(b.AppWords) {
		return false
	}
	for i := range a.AppWords {
		if a.AppWords[i] != b.AppWords[i] {
			return false
		}
	}
	return a.SLID == b.SLID && a.DLID == b.DLID && a.Opcode == b.Opcode &&
		a.PSN == b.PSN && a.DestQP == b.DestQP && a.AckReq == b.AckReq &&
		a.SrcQP == b.SrcQP && a.RemoteAddr == b.RemoteAddr && a.DMALen == b.DMALen &&
		a.Syndrome == b.Syndrome && a.RNRTimerNs == b.RNRTimerNs && a.AckPSN == b.AckPSN &&
		a.PayloadLen == b.PayloadLen && a.AppSeq == b.AppSeq &&
		a.AtomicSwap == b.AtomicSwap && a.AtomicCompare == b.AtomicCompare &&
		a.AtomicOrig == b.AtomicOrig && a.DammingDoomed == b.DammingDoomed
}

func TestTraceEmpty(t *testing.T) {
	c := &Capture{}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records", len(got))
	}
}

func TestTraceBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(make([]byte, 12))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v", err)
	}
}

func TestTraceTruncated(t *testing.T) {
	c := randomCapture(rand.New(rand.NewSource(1)), 3)
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace should error")
	}
}

func TestTraceBadVersion(t *testing.T) {
	c := randomCapture(rand.New(rand.NewSource(2)), 1)
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99
	if _, err := ReadTrace(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v", err)
	}
}

func TestWriteCSV(t *testing.T) {
	eng, _, cap_, a := setup(t)
	a.Send(&packet.Packet{Opcode: packet.OpReadRequest, DLID: 2, PSN: 7, DestQP: 3})
	a.Send(&packet.Packet{Opcode: packet.OpAcknowledge, Syndrome: packet.SynRNRNAK, DLID: 2})
	eng.Run()
	var buf bytes.Buffer
	if err := cap_.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "time_ns,src,dst,opcode") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "RDMA READ Request") || !strings.Contains(lines[1], ",7,") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "RNR NAK") {
		t.Errorf("row = %q", lines[2])
	}
}
