package core

import (
	"odpsim/internal/cluster"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// MeasureTimeout reproduces the Figure-2 methodology on one system: a QP
// is connected with a deliberately wrong destination LID so every packet
// is lost, C_retry is set to 7, and the measured time t between the first
// request and the IBV_WC_RETRY_EXC_ERR abort yields T_o = t / (C_retry+1).
func MeasureTimeout(sys cluster.System, cack int, seed int64) sim.Time {
	return MeasureTimeoutOn(nil, sys, cack, seed)
}

// MeasureTimeoutOn is MeasureTimeout on a Reset-reused engine (nil for a
// fresh one); see BenchConfig.Eng for the reuse contract.
func MeasureTimeoutOn(eng *sim.Engine, sys cluster.System, cack int, seed int64) sim.Time {
	const cretry = 7
	cl := sys.BuildOn(eng, seed, 2)
	client := cl.Nodes[0]
	lbuf := client.AS.Alloc(4096)
	client.RegisterMR(lbuf, 4096, false)

	cq := rnic.NewCQ(cl.Eng)
	qp := client.CreateQP(cq, cq)
	// LID 99 does not exist on the fabric: the subnet drops everything.
	qp.Connect(99, 1, rnic.ConnParams{CACK: cack, RetryCount: cretry})

	var abortAt sim.Time = -1
	cl.Eng.Go("probe", func(p *sim.Proc) {
		start := p.Now()
		qp.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lbuf, RemoteAddr: 0x1000, Len: 100})
		var wc [1]rnic.CQE
		cq.WaitN(p, wc[:])
		if wc[0].Status == rnic.WCRetryExcErr {
			abortAt = p.Now() - start
		}
	})
	cl.Eng.MustRun()
	if abortAt < 0 {
		return -1
	}
	return abortAt / (cretry + 1)
}

// TheoreticalTTr returns the spec's retransmission timer interval
// T_tr = 4.096 µs · 2^cack with no vendor minimum applied — the dashed
// reference line of Figure 2.
func TheoreticalTTr(cack int) sim.Time {
	if cack <= 0 {
		return 0
	}
	if cack > 31 {
		cack = 31
	}
	return sim.Time(4096) * sim.Nanosecond << uint(cack)
}

// TheoreticalTo returns the spec's upper bound 4·T_tr, Figure 2's second
// reference line.
func TheoreticalTo(cack int) sim.Time { return 4 * TheoreticalTTr(cack) }
