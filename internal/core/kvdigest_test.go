package core

import (
	"testing"

	"odpsim/internal/sim"
)

// TestLinkSerialization checks a core link's egress cursor and tally:
// digests sent back to back land one serialization time apart, not
// stacked on one instant, a digest sent after the link went idle lands
// its serialization and propagation after its send, and the link counts
// every digest and keeps the last one's landing and payload.
func TestLinkSerialization(t *testing.T) {
	l := newKVLink(32) // 64 B take 16 ns at 32 Gb/s
	ser := 16 * sim.Nanosecond
	l.send(0, 1)
	if want := ser + kvCoreProp; l.last != want {
		t.Errorf("first digest lands at %v, want %v", l.last, want)
	}
	first := l.last
	l.send(0, 2)
	if d := l.last - first; d != ser {
		t.Errorf("back-to-back digests land %v apart, want %v of serialization", d, ser)
	}
	idle := 10 * sim.Microsecond
	l.send(idle, 3)
	if want := idle + ser + kvCoreProp; l.last != want {
		t.Errorf("digest sent at %v after idle lands at %v, want %v", idle, l.last, want)
	}
	if l.n != 3 || l.arg != 3 {
		t.Errorf("link tallied %d digests, last payload %d; want 3 and 3", l.n, l.arg)
	}
}
