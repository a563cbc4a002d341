package core

import (
	"fmt"
	"reflect"
	"testing"

	"odpsim/internal/sim"
)

// TestFlightMergeOrder pins the (at, from, seq) merge of the source
// pods' digests on pod 0: digests landing at the same instant fire by
// source pod, the lower first whatever the sequence numbers, and one
// pod's digests in the order it reserved them.
func TestFlightMergeOrder(t *testing.T) {
	at := sim.Microsecond
	flights := []kvFlight{
		{at: at, seq: 1, from: 2, arg: 0},
		{at: at, seq: 9, from: 1, arg: 1},
		{at: at, seq: 0, from: 2, arg: 1},
		{at: at, seq: 5, from: 1, arg: 0},
		{at: at / 2, seq: 7, from: 2, arg: 2},
	}
	pod0 := sim.New(1)
	var got []string
	landDigests(pod0, flights, func(f kvFlight) {
		if pod0.Now() != f.at {
			t.Errorf("digest %d/%d stamped %v landed at %v", f.from, f.arg, f.at, pod0.Now())
		}
		got = append(got, fmt.Sprintf("%d/%d", f.from, f.arg))
	})
	pod0.Run()
	want := []string{"2/2", "1/0", "1/1", "2/1", "2/0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge order %v, want %v", got, want)
	}
}

// TestSameInstantLandingOrder pins the landing tie rule: a digest
// landing at the same instant as a pod-0 event fires after it, whether
// the event was scheduled before landDigests, after it, or by another
// event while pod 0 runs. A landing drawing pod 0's next sequence number
// would fire before the later two.
func TestSameInstantLandingOrder(t *testing.T) {
	src, pod0 := sim.New(1), sim.New(2)
	l := newKVLink(1, 32, 1)
	l.send(src, 7)
	at := l.flights[0].at

	var got []string
	local := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", name, int64(pod0.Now()))) }
	}
	pod0.Schedule(at, local("before"))
	landDigests(pod0, l.flights, func(f kvFlight) {
		got = append(got, fmt.Sprintf("land@%d", int64(pod0.Now())))
	})
	pod0.Schedule(at, local("after"))
	pod0.Schedule(0, func() { pod0.Schedule(at, local("running")) })
	pod0.Run()
	want := []string{
		fmt.Sprintf("before@%d", int64(at)),
		fmt.Sprintf("after@%d", int64(at)),
		fmt.Sprintf("running@%d", int64(at)),
		fmt.Sprintf("land@%d", int64(at)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pod 0 fired %v, want %v", got, want)
	}
}

// TestLinkSerialization checks a core link's egress cursor: digests
// sent back to back land one serialization time apart, not stacked on
// one instant, and a digest sent after the link went idle lands its
// serialization and propagation after its send.
func TestLinkSerialization(t *testing.T) {
	src := sim.New(1)
	l := newKVLink(1, 32, 3) // 64 B take 16 ns at 32 Gb/s
	l.send(src, 0)
	l.send(src, 1)
	idle := 10 * sim.Microsecond
	src.Schedule(idle, func() { l.send(src, 2) })
	src.Run()

	ser := 16 * sim.Nanosecond
	if len(l.flights) != 3 {
		t.Fatalf("flights = %d, want 3", len(l.flights))
	}
	if want := ser + kvCoreProp; l.flights[0].at != want {
		t.Errorf("first digest lands at %v, want %v", l.flights[0].at, want)
	}
	if d := l.flights[1].at - l.flights[0].at; d != ser {
		t.Errorf("back-to-back digests land %v apart, want %v of serialization", d, ser)
	}
	if want := idle + ser + kvCoreProp; l.flights[2].at != want {
		t.Errorf("digest sent at %v after idle lands at %v, want %v", idle, l.flights[2].at, want)
	}
	if l.flights[0].seq >= l.flights[1].seq || l.flights[1].seq >= l.flights[2].seq {
		t.Errorf("digest sequence numbers %d, %d, %d are not in send order",
			l.flights[0].seq, l.flights[1].seq, l.flights[2].seq)
	}
}
