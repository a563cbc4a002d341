package irn

import (
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

func TestReorderBufferInOrderFlow(t *testing.T) {
	var rb ReorderBuffer
	rb.Init(10)
	if d := rb.Classify(10); d != InOrder {
		t.Fatalf("classify(10) = %v", d)
	}
	if d := rb.Classify(9); d != Duplicate {
		t.Fatalf("classify(9) = %v", d)
	}
	if d := rb.Classify(11); d != OutOfOrder {
		t.Fatalf("classify(11) = %v", d)
	}
	if d := rb.Classify(10 + Window); d != BeyondWindow {
		t.Fatalf("classify(epsn+Window) = %v", d)
	}
	rb.Advance(1)
	if rb.EPSN() != 11 {
		t.Fatalf("epsn = %d", rb.EPSN())
	}
}

func TestReorderBufferGapFill(t *testing.T) {
	var rb ReorderBuffer
	rb.Init(100)
	// 101 and 103 land out of order while 100 is missing.
	for _, psn := range []uint32{101, 103} {
		pkt := &packet.Packet{Opcode: packet.OpWriteOnly, PSN: psn, DMALen: psn}
		if d := rb.Classify(psn); d != OutOfOrder {
			t.Fatalf("classify(%d) = %v", psn, d)
		}
		rb.Stash(pkt)
	}
	if rb.Buffered() != 2 {
		t.Fatalf("buffered = %d", rb.Buffered())
	}
	if d := rb.Classify(101); d != Duplicate {
		t.Fatalf("stashed 101 should classify Duplicate, got %v", d)
	}
	base, bm := rb.Sack()
	if base != 100 || bm != 0b1010 {
		t.Fatalf("sack = (%d, %b)", base, bm)
	}
	if _, ok := rb.Head(); ok {
		t.Fatal("head should be empty while 100 is missing")
	}
	// 100 arrives: execute it, advance, and sweep the run.
	if d := rb.Classify(100); d != InOrder {
		t.Fatalf("classify(100) = %v", d)
	}
	rb.Advance(1)
	h, ok := rb.Head()
	if !ok || h.PSN != 101 || h.DMALen != 101 {
		t.Fatalf("head after advance = %+v ok=%v", h, ok)
	}
	rb.Advance(1)
	if _, ok := rb.Head(); ok {
		t.Fatal("102 is still missing; head must be empty")
	}
	if rb.EPSN() != 102 {
		t.Fatalf("epsn = %d", rb.EPSN())
	}
	base, bm = rb.Sack()
	if base != 102 || bm != 0b10 {
		t.Fatalf("sack = (%d, %b)", base, bm)
	}
}

func TestReorderBufferDropHead(t *testing.T) {
	var rb ReorderBuffer
	rb.Init(5)
	rb.Stash(&packet.Packet{PSN: 6})
	rb.Advance(1) // 5 executed; 6 becomes head
	if _, ok := rb.Head(); !ok {
		t.Fatal("6 should be head")
	}
	rb.DropHead()
	if _, ok := rb.Head(); ok {
		t.Fatal("head should be dropped")
	}
	if rb.Buffered() != 0 {
		t.Fatalf("buffered = %d", rb.Buffered())
	}
}

func TestReorderBufferPSNWrap(t *testing.T) {
	var rb ReorderBuffer
	const top = 1<<24 - 2
	rb.Init(top)
	wrapped := packet.PSNAdd(top, 3) // PSN 1
	if d := rb.Classify(wrapped); d != OutOfOrder {
		t.Fatalf("classify(wrap) = %v", d)
	}
	rb.Stash(&packet.Packet{PSN: wrapped})
	rb.Advance(3)
	h, ok := rb.Head()
	if !ok || h.PSN != wrapped {
		t.Fatalf("head after wrap advance = %+v ok=%v", h, ok)
	}
}

func TestTxAccountBDPAndSpan(t *testing.T) {
	var tx TxAccount
	tx.Init(3000, 0)
	if !tx.CanSend(2000, 1) {
		t.Fatal("first send must be admitted")
	}
	tx.OnSend(0, 1, 2000)
	if tx.CanSend(2000, 1) {
		t.Fatal("2000+2000 exceeds the 3000 BDP cap")
	}
	// A cap smaller than one message still admits the first message.
	if !tx.CanSend(0, 1) {
		t.Fatal("zero-byte send should pass")
	}
	tx.Complete(1)
	if tx.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", tx.Outstanding())
	}
	if !tx.CanSend(2000, 1) {
		t.Fatal("cap freed after completion")
	}
	// Span: fill the window with 1-byte sends.
	tx.Init(1<<30, 100)
	for i := 0; i < Window; i++ {
		if !tx.CanSend(1, 1) {
			t.Fatalf("send %d should fit the window", i)
		}
		tx.OnSend(packet.PSNAdd(100, i), 1, 1)
	}
	if tx.CanSend(1, 1) {
		t.Fatal("window span must refuse the 65th outstanding PSN")
	}
	tx.Complete(packet.PSNAdd(100, 1))
	if !tx.CanSend(1, 1) {
		t.Fatal("span frees as the base completes")
	}
}

func TestTxAccountMultiPSNRead(t *testing.T) {
	var tx TxAccount
	tx.Init(1<<30, 0)
	tx.OnSend(0, 4, 4096) // READ occupying PSNs 0..3
	if tx.Outstanding() != 4096 {
		t.Fatalf("outstanding = %d", tx.Outstanding())
	}
	tx.Complete(4)
	if tx.Outstanding() != 0 {
		t.Fatalf("outstanding after complete = %d", tx.Outstanding())
	}
}

func TestStateArenaRecycles(t *testing.T) {
	eng := sim.New(1)
	a := StateFor(eng)
	b := StateFor(eng)
	if a == b {
		t.Fatal("two grabs in one generation must be distinct")
	}
	eng.Reset(2)
	a2 := StateFor(eng)
	b2 := StateFor(eng)
	if a2 != a || b2 != b {
		t.Fatal("a Reset generation must recycle last trial's states in order")
	}
}
