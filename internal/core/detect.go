package core

import (
	"fmt"

	"odpsim/internal/capture"
	"odpsim/internal/sim"
)

// DammingIncident is a detected packet-damming occurrence: a request PSN
// retransmitted after an anomalously long silent gap (the timeout), which
// is exactly how the paper identified the pitfall in ibdump traces.
type DammingIncident struct {
	QPN     uint32
	PSN     uint32
	FirstAt sim.Time
	RetryAt sim.Time
	Stall   sim.Time
}

// String implements fmt.Stringer.
func (d DammingIncident) String() string {
	return fmt.Sprintf("QP %d PSN %d stalled %v (first sent %v, retried %v)",
		d.QPN, d.PSN, d.Stall, d.FirstAt, d.RetryAt)
}

// DetectDamming scans a capture for request packets retransmitted after a
// gap of at least minStall (several hundred milliseconds for a default
// ConnectX-4 timeout). Each (QP, PSN) is reported once, at its longest
// stall.
func DetectDamming(c *capture.Capture, minStall sim.Time) []DammingIncident {
	type key struct {
		qp  uint32
		psn uint32
	}
	lastSeen := make(map[key]sim.Time)
	firstSeen := make(map[key]sim.Time)
	best := make(map[key]DammingIncident)
	var order []key
	for _, r := range c.Records() {
		if !r.Pkt.Opcode.IsRequest() {
			continue
		}
		k := key{r.Pkt.DestQP, r.Pkt.PSN}
		if prev, ok := lastSeen[k]; ok {
			if stall := r.At - prev; stall >= minStall {
				inc := DammingIncident{
					QPN: k.qp, PSN: k.psn,
					FirstAt: firstSeen[k], RetryAt: r.At, Stall: stall,
				}
				if old, dup := best[k]; !dup || inc.Stall > old.Stall {
					if !dup {
						order = append(order, k)
					}
					best[k] = inc
				}
			}
		} else {
			firstSeen[k] = r.At
		}
		lastSeen[k] = r.At
	}
	out := make([]DammingIncident, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	return out
}

// FloodIncident is a detected packet flood: a burst of request
// retransmissions within one window.
type FloodIncident struct {
	WindowStart sim.Time
	Retransmits int
	DistinctQPs int
}

// String implements fmt.Stringer.
func (f FloodIncident) String() string {
	return fmt.Sprintf("window at %v: %d retransmissions across %d QPs",
		f.WindowStart, f.Retransmits, f.DistinctQPs)
}

// DetectFlood slices the capture into windows and reports those where the
// number of request retransmissions reaches threshold — the paper's
// fingerprint of packet flood ("many READ packets were retransmitted
// every several tens of milliseconds").
func DetectFlood(c *capture.Capture, window sim.Time, threshold int) []FloodIncident {
	if window <= 0 {
		window = 50 * sim.Millisecond
	}
	type key struct {
		qp  uint32
		psn uint32
	}
	seen := make(map[key]bool)
	counts := make(map[sim.Time]int)
	qpsAt := make(map[sim.Time]map[uint32]bool)
	for _, r := range c.Records() {
		if !r.Pkt.Opcode.IsRequest() {
			continue
		}
		k := key{r.Pkt.DestQP, r.Pkt.PSN}
		if seen[k] {
			w := (r.At / window) * window
			counts[w]++
			if qpsAt[w] == nil {
				qpsAt[w] = make(map[uint32]bool)
			}
			qpsAt[w][r.Pkt.DestQP] = true
		}
		seen[k] = true
	}
	var out []FloodIncident
	for w, n := range counts {
		if n >= threshold {
			out = append(out, FloodIncident{WindowStart: w, Retransmits: n, DistinctQPs: len(qpsAt[w])})
		}
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].WindowStart < out[j-1].WindowStart; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
