package core

import (
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// DummyPingIDBase is the WR-ID space used by the dummy-communication
// workaround; real operations must use IDs below it.
const DummyPingIDBase uint64 = 1 << 62

// DummyPinger implements the paper's second packet-damming workaround
// (§IX-A): "implementing a software timer with appropriate granularity to
// issue a dummy communication periodically". Each dummy READ posted after
// a pending window gives the responder a PSN gap to NAK, rescuing dammed
// requests in one round trip instead of a several-hundred-millisecond
// timeout.
type DummyPinger struct {
	eng      *sim.Engine
	qp       *rnic.QP
	local    hostmem.Addr
	remote   hostmem.Addr
	interval sim.Time
	timer    sim.Timer
	stopped  bool
	next     uint64

	// Pings counts dummy operations issued.
	Pings uint64
}

// StartDummyPinger begins posting a 1-byte dummy READ on qp every
// interval (default 200 µs). local and remote must lie in registered
// regions.
func StartDummyPinger(eng *sim.Engine, qp *rnic.QP, local, remote hostmem.Addr, interval sim.Time) *DummyPinger {
	if interval <= 0 {
		interval = 200 * sim.Microsecond
	}
	d := &DummyPinger{eng: eng, qp: qp, local: local, remote: remote, interval: interval}
	d.schedule()
	return d
}

func (d *DummyPinger) schedule() {
	d.timer = d.eng.After(d.interval, func() {
		if d.stopped || d.qp.State() != rnic.QPReady {
			return
		}
		d.Pings++
		d.qp.PostSend(rnic.SendWR{
			ID: DummyPingIDBase + d.next, Op: rnic.OpRead,
			LocalAddr: d.local, RemoteAddr: d.remote, Len: 1,
		})
		d.next++
		d.schedule()
	})
}

// Stop halts the pinger.
func (d *DummyPinger) Stop() {
	d.stopped = true
	d.timer.Cancel()
}

// SmallestRNRDelay is the paper's first workaround: configure the minimal
// RNR NAK delay as small as possible, which narrows the pending window in
// which posts are vulnerable to damming and speeds client-side fault
// resolution. The InfiniBand RNR timer field's smallest non-zero encoding
// is 0.01 ms.
const SmallestRNRDelay = 10 * sim.Microsecond
