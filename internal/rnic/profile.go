// Package rnic models the RDMA network interface card: device profiles for
// the ConnectX generations the paper measures, queue pairs with the full
// Reliable Connection requester/responder state machines (PSN tracking,
// ACK/NAK processing, RNR NAK waits, timeout retransmission with retry
// budget), memory regions (pinned and ODP), and completion queues.
//
// The two pitfalls live here and in package odp: the ConnectX-4
// packet-damming quirk is modelled in the requester's pause/resume logic
// (see qp.go), and packet flood emerges from the interaction between the
// client-side ODP retransmission loop and the odp.Engine's serial
// pipeline.
package rnic

import (
	"odpsim/internal/odp"
	"odpsim/internal/sim"
)

// Timing and framing every ConnectX generation shares.
const (
	// TimeoutFactor k sets the measured timeout T_o = k · T_tr. The
	// paper's floors (≈500 ms at c0=16, ≈30 ms at c0=12) give k ≈ 1.86.
	TimeoutFactor = 1.86
	// TimeoutJitter is the relative spread of each timeout draw.
	TimeoutJitter = 0.08
	// TimeoutLoadFactor lengthens each timeout draw per concurrently
	// busy QP beyond the first, within the spec's [T_tr, 4·T_tr] clamp.
	// The paper observed that "the timeout interval lengthened with
	// multiple QPs ... a high load is imposed on the client by managing
	// the RNR timer and retransmission" (§VI-C).
	TimeoutLoadFactor = 0.01
	// MTU is the path MTU in bytes.
	MTU = 4096
)

// Profile describes one RNIC model's timing and quirk behaviour. The
// numbers are estimated from the paper's measurements (Figure 2 for the
// timeout floors, Figure 1 for the ODP timings) — see DESIGN.md §4.
type Profile struct {
	// Name is the marketing name, e.g. "ConnectX-4".
	Name string
	// LinkGbps is the nominal link speed.
	LinkGbps float64

	// MinCACK is the vendor's minimum acceptable Local ACK Timeout
	// exponent c0: the effective exponent is max(CACK, MinCACK) for any
	// non-zero CACK (InfiniBand spec §9.7.6.1.3, quoted in the paper).
	MinCACK int

	// RNRWaitFactor scales the configured minimal RNR NAK delay into the
	// observed wait before retransmission (the paper configures 1.28 ms
	// and observes ≈4.5 ms, factor ≈3.5 on ConnectX-4).
	RNRWaitFactor float64

	// DammingQuirk enables the ConnectX-4-specific packet-damming flaw:
	// requests first posted during a pending window are lost once when
	// the window's batch retransmission occurs. NVIDIA/Mellanox told the
	// authors it is "specific to ConnectX-4 ... and vanishes in later
	// models".
	DammingQuirk bool

	// MaxRdAtomic bounds outstanding RDMA READs per QP.
	MaxRdAtomic int

	// ODP is the ODP-engine calibration for this device.
	ODP odp.Config
}

// TTr returns the retransmission timer interval T_tr = 4.096 µs · 2^c for
// the effective exponent, honouring the vendor minimum. cack == 0 means
// the timeout is disabled and TTr returns 0.
func (p Profile) TTr(cack int) sim.Time {
	if cack <= 0 {
		return 0
	}
	c := cack
	if c < p.MinCACK {
		c = p.MinCACK
	}
	if c > 31 {
		c = 31
	}
	return sim.Time(4096) * sim.Nanosecond << uint(c)
}

// DrawTimeout draws one measured timeout T_o for the given exponent from
// the device's distribution, clamped to the spec's [T_tr, 4·T_tr].
// busyQPs is the number of QPs concurrently managing outstanding
// requests on the RNIC; values above 1 lengthen the draw per
// TimeoutLoadFactor.
func (p Profile) DrawTimeout(eng *sim.Engine, cack, busyQPs int) sim.Time {
	ttr := p.TTr(cack)
	if ttr == 0 {
		return 0
	}
	scale := TimeoutFactor
	if busyQPs > 1 {
		scale *= 1 + TimeoutLoadFactor*float64(busyQPs-1)
	}
	to := eng.Jitter(sim.Time(float64(ttr)*scale), TimeoutJitter)
	if to < ttr {
		to = ttr
	}
	if to > 4*ttr {
		to = 4 * ttr
	}
	return to
}

func baseProfile(name string, gbps float64) Profile {
	return Profile{
		Name:          name,
		LinkGbps:      gbps,
		MinCACK:       16,
		RNRWaitFactor: 3.5,
		MaxRdAtomic:   16,
		ODP:           odp.DefaultConfig(),
	}
}

// ConnectX3 returns the ConnectX-3 56 Gb/s FDR profile (Private servers A).
// The paper's damming experiments target ConnectX-4; the CX-3 quirk status
// is not reported, so it is modelled without the quirk.
func ConnectX3() Profile {
	p := baseProfile("ConnectX-3", 56)
	return p
}

// ConnectX4 returns the ConnectX-4 profile (Private servers B "KNL",
// Reedbush-H/L, ABCI, ITO). It carries the damming quirk.
func ConnectX4() Profile {
	p := baseProfile("ConnectX-4", 56)
	p.DammingQuirk = true
	return p
}

// ConnectX5 returns the ConnectX-5 100 Gb/s EDR profile (Azure HC): the
// only device with the ≈30 ms timeout floor (MinCACK ≈ 12).
func ConnectX5() Profile {
	p := baseProfile("ConnectX-5", 100)
	p.MinCACK = 12
	return p
}

// ConnectX6 returns the ConnectX-6 200 Gb/s HDR profile (Azure HBv2):
// damming fixed, packet flood still present (§VI-A), long timeout floor
// unchanged.
func ConnectX6() Profile {
	p := baseProfile("ConnectX-6", 200)
	return p
}
