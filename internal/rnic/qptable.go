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
// transport's counter table over the QP table.
func (r *RNIC) addQP(s qpSlot) {
	if r.qps == nil {
		r.qps = make([]qpSlot, 0, 8)
	}
	r.qps = append(r.qps, s)
	if s.rc != nil {
		r.numRC++
		if r.numRC == 1 {
			telemetry.RegisterRows(&r.tel, &rcFamilies, (*rcRows)(r))
		}
		return
	}
	r.numUD++
	if r.numUD == 1 {
		telemetry.RegisterRows(&r.tel, &udFamilies, (*udRows)(r))
	}
}

// rcFamilies are the per-QP requester counters, the way `rdma statistic
// qp show` exposes them; each QP's Stats fields are the live storage.
var rcFamilies = telemetry.Table[QPStats]{
	{Name: telemetry.LocalAckTimeoutErr, Help: "Local ACK Timeout expirations on the requester", Read: func(s *QPStats) float64 { return float64(s.Timeouts) }},
	{Name: telemetry.RNRNakRetryErr, Help: "RNR NAKs received by the requester", Read: func(s *QPStats) float64 { return float64(s.RNRNakReceived) }},
	{Name: telemetry.PacketSeqErr, Help: "PSN sequence error NAKs received by the requester", Read: func(s *QPStats) float64 { return float64(s.NakSeqReceived) }},
	{Name: telemetry.SimReqPosted, Help: "send work requests posted", Read: func(s *QPStats) float64 { return float64(s.Posted) }},
	{Name: telemetry.SimReqCompleted, Help: "send work requests completed", Read: func(s *QPStats) float64 { return float64(s.Completed) }},
	{Name: telemetry.SimRetransmits, Help: "request packets retransmitted (go-back-N sends)", Read: func(s *QPStats) float64 { return float64(s.Retransmits) }},
	{Name: telemetry.SimResponsesDiscarded, Help: "READ responses discarded (pending window or stale page)", Read: func(s *QPStats) float64 { return float64(s.ResponsesDiscarded) }},
	{Name: telemetry.SimClientFaultRounds, Help: "client-side ODP fault rounds", Read: func(s *QPStats) float64 { return float64(s.ClientFaultRounds) }},
}

// udFamilies are the per-UD-QP datagram counters.
var udFamilies = telemetry.Table[UDQP]{
	{Name: telemetry.SimUDSent, Help: "datagrams transmitted", Read: func(q *UDQP) float64 { return float64(q.Sent) }},
	{Name: telemetry.SimUDDelivered, Help: "datagrams placed into receive buffers", Read: func(q *UDQP) float64 { return float64(q.Delivered) }},
	{Name: telemetry.SimUDDroppedNoRecv, Help: "datagrams dropped for lack of a receive buffer", Read: func(q *UDQP) float64 { return float64(q.DroppedNoRecv) }},
	{Name: telemetry.SimUDDroppedFault, Help: "datagrams dropped into a stale ODP page", Read: func(q *UDQP) float64 { return float64(q.DroppedFault) }},
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

func (t *rcRows) Row(slot int) (string, any, bool) {
	qp := t.qps[slot].rc
	if qp == nil {
		return "", nil, false
	}
	if qp.labels == "" {
		qp.labels = t.tel.RowLabels("qpn", uint64(qp.Num))
	}
	return qp.labels, &qp.Stats, true
}

func (t *udRows) Slots() int { return len(t.qps) }
func (t *udRows) Count() int { return t.numUD }

func (t *udRows) Row(slot int) (string, any, bool) {
	qp := t.qps[slot].ud
	if qp == nil {
		return "", nil, false
	}
	if qp.labels == "" {
		qp.labels = t.tel.RowLabels("qpn", uint64(qp.Num))
	}
	return qp.labels, qp, true
}
