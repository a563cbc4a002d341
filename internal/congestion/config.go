// Package congestion models the lossless-fabric layer the paper's
// testbeds take for granted and related work studies explicitly: switches
// with finite shared buffers and per-port virtual-lane queues, IEEE
// 802.1Qbb priority flow control (PFC) pause/resume with configurable
// XOFF/XON thresholds, ECN marking above a queue-depth threshold, and a
// DCQCN-style rate limiter (Zhu et al., SIGCOMM 2015) on each RNIC
// requester. It is the first subsystem that makes fabric state feed back
// into RNIC pacing: every earlier layer was feed-forward.
//
// The model follows the PFC/RCM RoCEv2 simulations of Liu et al. and the
// lossless-vs-lossy framing of IRN (Mittal et al.): under a lossy fabric
// the ODP retransmission storms contend with finite buffers and lose
// packets (go-back-N amplification); under PFC the fabric is lossless but
// pause propagates; DCQCN paces the senders so the storm stops
// overrunning the bottleneck in the first place. See DESIGN.md §9 for the
// substitutions and calibration.
package congestion

// Virtual lanes. Data rides VL0; CNPs ride VL1, which is strictly
// prioritized and never paused — the standard DCQCN deployment puts
// congestion notifications on their own traffic class precisely so they
// outrun the congestion they report.
const (
	VLData    = 0
	VLControl = 1
	numVLs    = 2
)

// Config describes the switched fabric. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// Topology is the switch graph to build. The zero value (Kind "")
	// selects the historical linear chain derived from Switches and
	// UplinkFactor; use ChainTopology or ClosTopology to make it
	// explicit.
	Topology Topology
	// Switches is the number of switches in the implicit linear chain
	// (hosts attach round-robin by LID; with 2 switches and 2 hosts
	// every flow crosses the inter-switch link). Ignored when Topology
	// is set.
	Switches int
	// UplinkFactor oversubscribes the inter-switch links of the implicit
	// chain: their bandwidth is the edge link rate divided by this
	// factor (spine oversubscription is what makes a 2-host topology
	// contend at all). Values below 1 are treated as 1 (no
	// oversubscription). Ignored when Topology is set — Clos builders
	// take their own oversubscription argument.
	UplinkFactor float64
	// BufferBytes is each switch's shared packet buffer. Arrivals that
	// would overflow it are tail-dropped (unless PFC paused the source
	// first).
	BufferBytes int

	// PFC enables pause/resume frames: when the bytes buffered from one
	// ingress neighbour exceed XOffBytes the switch pauses that
	// neighbour's data VL, resuming below XOnBytes. XOffBytes must be
	// greater than XOnBytes.
	PFC       bool
	XOffBytes int
	XOnBytes  int

	// ECN enables congestion-experienced marking: packets admitted to a
	// switch whose shared-buffer occupancy is at or above
	// ECNThresholdBytes are marked (the RED-like min=max threshold
	// DCQCN's K_min=K_max degenerate configuration uses). Keep the
	// threshold below XOffBytes so marking engages before PFC throttles
	// the flow.
	ECN               bool
	ECNThresholdBytes int

	// DCQCN turns on the end-to-end rate control loop: CNP generation
	// at receivers and per-QP rate limiting at senders (see dcqcn.go for
	// its fixed parameters). DCQCN implies ECN (the marks are its only
	// input).
	DCQCN bool
}

// DefaultConfig returns a 2-switch fabric with a 4× oversubscribed
// inter-switch link and thresholds sized to the paper's flood bursts
// (128 QPs × ~80-byte requests ≈ 10 KB per blind-retransmission round):
// an 8 KB shared buffer overflows under a round, XOFF at 6 KB keeps PFC
// ahead of the drop point, and ECN at 1.5 KB marks early enough for
// DCQCN to cut rates within a few rounds.
func DefaultConfig() Config {
	return Config{
		Switches:          2,
		UplinkFactor:      4,
		BufferBytes:       8 << 10,
		XOffBytes:         6 << 10,
		XOnBytes:          2 << 10,
		ECNThresholdBytes: 1536,
	}
}

// withDefaults fills unset tuning fields.
func (c Config) withDefaults() Config {
	if c.Switches <= 0 {
		c.Switches = 2
	}
	if c.UplinkFactor < 1 {
		c.UplinkFactor = 1
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 8 << 10
	}
	if c.XOffBytes <= 0 {
		c.XOffBytes = 6 << 10
	}
	if c.XOnBytes <= 0 {
		c.XOnBytes = 2 << 10
	}
	if c.ECNThresholdBytes <= 0 {
		c.ECNThresholdBytes = 1536
	}
	if c.DCQCN {
		c.ECN = true
	}
	return c
}
