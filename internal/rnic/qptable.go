package rnic

import "odpsim/internal/telemetry"

// qpSlot is one entry of the device's QP table: exactly one of rc and ud
// is set.
type qpSlot struct {
	rc *QP
	ud *UDQP
}

// nextQPN returns the number the next created QP receives.
func (r *RNIC) nextQPN() uint32 { return uint32(len(r.qps)) + 1 }

// slot returns the table entry of qpn, or the empty slot when no QP has
// that number.
func (r *RNIC) slot(qpn uint32) qpSlot {
	if i := qpn - 1; i < uint32(len(r.qps)) {
		return r.qps[i]
	}
	return qpSlot{}
}

// addQP appends s to the QP table under the next QPN. The first QP
// sizes the table for eight, so a device with a handful of QPs
// allocates it once, and the first QP of each transport registers that
// transport's counter families.
func (r *RNIC) addQP(s qpSlot) {
	if r.qps == nil {
		r.qps = make([]qpSlot, 0, 8)
	}
	r.qps = append(r.qps, s)
	if s.rc != nil {
		r.numRC++
		if r.numRC == 1 {
			for f, d := range rcFamilies {
				r.tel.Family(d.name, d.help, (*rcRows)(r), f)
			}
		}
		return
	}
	r.numUD++
	if r.numUD == 1 {
		for f, d := range udFamilies {
			r.tel.Family(d.name, d.help, (*udRows)(r), f)
		}
	}
}

// rcFamilies are the per-QP requester counters, the way `rdma statistic
// qp show` exposes them; each QP's Stats fields are the live storage.
var rcFamilies = [...]struct {
	name, help string
	get        func(*QPStats) uint64
}{
	{telemetry.LocalAckTimeoutErr, "Local ACK Timeout expirations on the requester", func(s *QPStats) uint64 { return s.Timeouts }},
	{telemetry.RNRNakRetryErr, "RNR NAKs received by the requester", func(s *QPStats) uint64 { return s.RNRNakReceived }},
	{telemetry.PacketSeqErr, "PSN sequence error NAKs received by the requester", func(s *QPStats) uint64 { return s.NakSeqReceived }},
	{telemetry.SimReqPosted, "send work requests posted", func(s *QPStats) uint64 { return s.Posted }},
	{telemetry.SimReqCompleted, "send work requests completed", func(s *QPStats) uint64 { return s.Completed }},
	{telemetry.SimRetransmits, "request packets retransmitted (go-back-N sends)", func(s *QPStats) uint64 { return s.Retransmits }},
	{telemetry.SimResponsesDiscarded, "READ responses discarded (pending window or stale page)", func(s *QPStats) uint64 { return s.ResponsesDiscarded }},
	{telemetry.SimClientFaultRounds, "client-side ODP fault rounds", func(s *QPStats) uint64 { return s.ClientFaultRounds }},
}

// udFamilies are the per-UD-QP datagram counters.
var udFamilies = [...]struct {
	name, help string
	get        func(*UDQP) uint64
}{
	{telemetry.SimUDSent, "datagrams transmitted", func(q *UDQP) uint64 { return q.Sent }},
	{telemetry.SimUDDelivered, "datagrams placed into receive buffers", func(q *UDQP) uint64 { return q.Delivered }},
	{telemetry.SimUDDroppedNoRecv, "datagrams dropped for lack of a receive buffer", func(q *UDQP) uint64 { return q.DroppedNoRecv }},
	{telemetry.SimUDDroppedFault, "datagrams dropped into a stale ODP page", func(q *UDQP) uint64 { return q.DroppedFault }},
}

// rcRows and udRows present the QP table's RC and UD entries as
// telemetry rows labelled {device, qpn}. A QP renders its labels on its
// first snapshot and keeps them.
type (
	rcRows RNIC
	udRows RNIC
)

func (t *rcRows) Slots() int { return len(t.qps) }
func (t *rcRows) Count() int { return t.numRC }

func (t *rcRows) Row(slot, field int) (string, uint64, bool) {
	qp := t.qps[slot].rc
	if qp == nil {
		return "", 0, false
	}
	if qp.labels == "" {
		qp.labels = t.tel.RowLabels("qpn", uint64(qp.Num))
	}
	return qp.labels, rcFamilies[field].get(&qp.Stats), true
}

func (t *udRows) Slots() int { return len(t.qps) }
func (t *udRows) Count() int { return t.numUD }

func (t *udRows) Row(slot, field int) (string, uint64, bool) {
	qp := t.qps[slot].ud
	if qp == nil {
		return "", 0, false
	}
	if qp.labels == "" {
		qp.labels = t.tel.RowLabels("qpn", uint64(qp.Num))
	}
	return qp.labels, udFamilies[field].get(qp), true
}
