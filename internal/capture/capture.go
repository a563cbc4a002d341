// Package capture is the simulator's ibdump: it records every packet that
// crosses the fabric with timestamps, renders workflow diagrams like the
// paper's Figures 1, 5 and 8, and provides the packet counters behind
// Figure 9b. The paper's methodology rests on this kind of raw-packet
// visibility ("detecting the pitfalls becomes extremely hard without
// observing the raw packets", §IX-A).
package capture

import (
	"fmt"
	"io"
	"strings"

	"odpsim/internal/fabric"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// Record is one captured packet. Pkt is stored by value: the fabric only
// lends the live packet to taps for the duration of the tap call
// (DESIGN.md §8), so the capture keeps its own copy, the way ibdump
// copies frames out of the mirrored stream.
type Record struct {
	At      sim.Time
	Pkt     packet.Packet
	Src     string
	Dst     string
	Dropped bool
	Reason  string
}

// Capture accumulates records from a fabric tap.
type Capture struct {
	records []Record
}

// Attach creates a capture and taps the fabric; it records from then on.
func Attach(f *fabric.Fabric) *Capture {
	c := &Capture{}
	f.AddTap(func(ev fabric.TapEvent) {
		c.records = append(c.records, Record{
			At: ev.At, Pkt: *ev.Pkt, Src: ev.SrcName, Dst: ev.DstName,
			Dropped: ev.Dropped, Reason: ev.Reason,
		})
	})
	return c
}

// FromRecords builds a capture holding the given records — e.g. reloaded
// from a trace file with ReadTrace — so the analysis helpers and
// detectors can run offline.
func FromRecords(rs []Record) *Capture {
	return &Capture{records: rs}
}

// Records returns all captured records.
func (c *Capture) Records() []Record { return c.records }

// Total returns the number of captured packets.
func (c *Capture) Total() int { return len(c.records) }

// RenderFlow writes a two-column workflow diagram in the style of the
// paper's Figures 1, 5 and 8: client on the left, server on the right,
// one captured packet per line. left names the client-side endpoint.
func (c *Capture) RenderFlow(w io.Writer, left string) {
	const width = 46
	fmt.Fprintf(w, "%12s  %-*s\n", "time", width+len("client  server"), "client"+strings.Repeat(" ", width-4)+"server")
	for _, r := range c.records {
		label := r.Pkt.String()
		if r.Dropped {
			label += " ✗ " + r.Reason
		} else if r.Pkt.DammingDoomed {
			label += " ✗ discarded by RNIC (damming quirk)"
		}
		toRight := r.Src == left
		var line string
		if toRight {
			line = "──" + label + "──▶"
		} else {
			line = "◀──" + label + "──"
		}
		fmt.Fprintf(w, "%12s  %s\n", r.At, line)
	}
}

// Summary renders one line per opcode/syndrome with counts.
func (c *Capture) Summary() string {
	var b strings.Builder
	counts := map[string]int{}
	var order []string
	for _, r := range c.records {
		name := r.Pkt.Opcode.String()
		if r.Pkt.Opcode == packet.OpAcknowledge {
			name = r.Pkt.Syndrome.String()
		}
		if _, ok := counts[name]; !ok {
			order = append(order, name)
		}
		counts[name]++
	}
	fmt.Fprintf(&b, "%d packets captured\n", len(c.records))
	for _, name := range order {
		fmt.Fprintf(&b, "  %-34s %6d\n", name, counts[name])
	}
	return b.String()
}
