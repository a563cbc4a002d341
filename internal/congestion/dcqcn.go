package congestion

import "odpsim/internal/sim"

// The DCQCN loop parameters. They are the constants the model is
// calibrated with, not tuning knobs: every simulated fabric runs them.
const (
	// MinCNPInterval is the notification point's per-QP CNP pacing
	// window (the N_CNP timer).
	MinCNPInterval = 50 * sim.Microsecond
	// g is the alpha EWMA gain.
	g float64 = 1.0 / 16
	// alphaTimer is the alpha-decay update period.
	alphaTimer = 55 * sim.Microsecond
	// rateTimer is the rate-increase period. The DCQCN paper uses 1.5 ms
	// with a byte counter; the simulator is timer-only, so it recovers
	// faster to keep short floods interesting.
	rateTimer = 300 * sim.Microsecond
	// fastRecoverySteps is F: rate-timer expirations spent in fast
	// recovery (rc averaged toward rt) before additive increase starts.
	fastRecoverySteps = 5
	// aiRateGbps is the additive-increase step R_AI.
	aiRateGbps float64 = 5
	// minRateGbps floors the current rate.
	minRateGbps float64 = 0.1
	// maxBacklog bounds how far ahead of the clock the rate limiter may
	// book transmissions. It models the finite TX queue of a real port:
	// go-back-N retransmission bursts that exceed it are shed rather
	// than queued, exactly as a NIC cannot hold an unbounded retransmit
	// backlog — the timeout/NAK machinery regenerates them. Without the
	// bound a retransmission storm against a cut rate books events
	// unboundedly into the future.
	maxBacklog = sim.Millisecond
)

// RateState is the DCQCN reaction point for one QP: the rate-decrease /
// fast-recovery / additive-increase state machine of Zhu et al. (SIGCOMM
// 2015), driven by CNP arrivals and two timers. The simulator is
// timer-only (no byte counter) — a documented simplification that keeps
// the recovery dynamics without per-packet bookkeeping.
//
// A RateState at line rate is completely passive: Reserve returns the
// caller's own clock and no timer is armed, so enabling DCQCN costs
// nothing until the first CNP arrives, and a drained simulation stays
// drained (the timers cancel themselves once the rate has recovered).
type RateState struct {
	eng  *sim.Engine
	line float64 // link rate, Gb/s

	rc    float64 // current rate
	rt    float64 // target rate
	alpha float64 // congestion estimate
	stage int     // rate-timer expirations since the last cut

	// nextFree is the pacing credit: the earliest time the next packet
	// may start clocking out. Only meaningful while rc < line.
	nextFree sim.Time

	// The two update timers are record timers: each arms the state
	// itself, as a rateAlpha or a rateRecover, so arming binds no
	// callback.
	alphaTimer sim.Timer
	rateTimer  sim.Timer

	// Cuts counts rate decreases (one per handled CNP); Shed counts
	// packets refused by Reserve because the TX backlog was full.
	Cuts uint64
	Shed uint64

	arenaNext *RateState
}

// NewRateState creates a reaction point at line rate, taken from the
// engine's arena (see sim.Arena): trial loops that re-arm DCQCN on every
// rebuilt QP reuse the same structs instead of allocating a fresh state
// machine per QP per trial.
func NewRateState(eng *sim.Engine, lineGbps float64) *RateState {
	a := &scratchFor(eng).rates
	rs := a.Take(eng)
	if rs == nil {
		rs = &RateState{}
		a.Add(rs)
	}
	rs.reset(eng, lineGbps)
	return rs
}

// reset returns the state machine to its just-constructed line-rate
// state. The engine's Reset already made any outstanding timer handles
// inert (event generations advanced), so zeroing the handles here only
// keeps Pending() honest before the first CNP of the new trial.
func (rs *RateState) reset(eng *sim.Engine, lineGbps float64) {
	rs.eng = eng
	rs.line, rs.rc, rs.rt = lineGbps, lineGbps, lineGbps
	rs.alpha, rs.stage = 0, 0
	rs.nextFree = 0
	rs.alphaTimer, rs.rateTimer = sim.Timer{}, sim.Timer{}
	rs.Cuts, rs.Shed = 0, 0
}

// CurrentGbps returns the current sending rate.
func (rs *RateState) CurrentGbps() float64 { return rs.rc }

// Limited reports whether the QP is currently below line rate.
func (rs *RateState) Limited() bool { return rs.rc < rs.line }

// Reserve returns the earliest time a packet of wireBytes may start
// transmitting, and books that transmission against the rate credit.
// At line rate it returns (now, true) untouched — the wire's own
// serialization is the only limit. When the booked backlog already
// reaches maxBacklog ahead of the clock, Reserve refuses (false): the
// TX queue is full and the caller must shed the packet instead of
// booking it (Shed counts those refusals).
func (rs *RateState) Reserve(now sim.Time, wireBytes int) (sim.Time, bool) {
	if rs.rc >= rs.line {
		rs.nextFree = now
		return now, true
	}
	start := rs.nextFree
	if start < now {
		start = now
	}
	if start-now > maxBacklog {
		rs.Shed++
		return 0, false
	}
	// bits / (Gb/s) = ns, same arithmetic as the fabric's serialization.
	rs.nextFree = start + sim.Time(float64(wireBytes*8)/rs.rc)
	return start, true
}

// HandleCNP applies one congestion notification: raise alpha, cut the
// current rate by alpha/2 toward zero, remember the pre-cut rate as the
// recovery target, and (re)arm the update timers.
func (rs *RateState) HandleCNP() {
	rs.alpha = (1-g)*rs.alpha + g
	rs.rt = rs.rc
	rs.rc = rs.rc * (1 - rs.alpha/2)
	if rs.rc < minRateGbps {
		rs.rc = minRateGbps
	}
	rs.stage = 0
	rs.Cuts++
	if !rs.alphaTimer.Pending() {
		rs.alphaTimer = rs.eng.AfterFire(alphaTimer, (*rateAlpha)(rs))
	}
	if !rs.rateTimer.Pending() {
		rs.rateTimer = rs.eng.AfterFire(rateTimer, (*rateRecover)(rs))
	}
}

// rateAlpha and rateRecover are a RateState under the names of its two
// record timers: Fire is that timer's tick.
type (
	rateAlpha   RateState
	rateRecover RateState
)

func (a *rateAlpha) Fire()   { (*RateState)(a).alphaTick() }
func (r *rateRecover) Fire() { (*RateState)(r).rateTick() }

// alphaTick decays the congestion estimate; it keeps itself armed only
// while there is something left to decay or recover.
func (rs *RateState) alphaTick() {
	rs.alpha *= 1 - g
	if rs.alpha > 1e-3 || rs.rc < rs.line {
		rs.alphaTimer = rs.eng.AfterFire(alphaTimer, (*rateAlpha)(rs))
	}
}

// rateTick runs fast recovery (rc averaged toward the pre-cut target)
// for fastRecoverySteps periods, then additive increase (the target
// itself climbs by R_AI). The timer disarms once rc is back at line
// rate, so an idle simulation drains.
func (rs *RateState) rateTick() {
	rs.stage++
	if rs.stage > fastRecoverySteps {
		rs.rt += aiRateGbps
	}
	if rs.rt > rs.line {
		rs.rt = rs.line
	}
	rs.rc = (rs.rt + rs.rc) / 2
	if rs.rc >= rs.line*0.999 {
		rs.rc, rs.rt = rs.line, rs.line
		return
	}
	rs.rateTimer = rs.eng.AfterFire(rateTimer, (*rateRecover)(rs))
}
