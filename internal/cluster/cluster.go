// Package cluster encodes the systems of the paper's Tables I and II —
// RNIC model, link speed, firmware-era quirks and host speed — and builds
// ready-to-use simulated clusters out of them.
package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/npr"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// System is one row of Table I, joined with its Table II host data.
type System struct {
	// Name is the system name, e.g. "KNL (Private servers B)".
	Name string
	// Device is the RNIC profile.
	Device rnic.Profile
	// CPUFactor scales host-side latencies (page-fault resolution,
	// software overheads): 1.0 for a ~2.4 GHz Xeon, larger for slower
	// hosts (the KNL's Xeon Phi cores are markedly slower).
	CPUFactor float64
	// LossRate, when positive, makes the fabric drop each packet
	// independently with this probability — the scenario layer's loss
	// fault knob. Zero (the Table-I systems' default) means a lossless
	// fabric.
	LossRate float64
	// FaultScale multiplies the kernel's page-fault resolution latency
	// (hostmem.Config.FaultResolveMin/Max); zero means 1.0. The scenario
	// layer uses it to model slower or faster fault paths than the
	// calibrated ConnectX-4 numbers.
	FaultScale float64
	// Congestion, when non-nil, replaces the fabric's analytic latency
	// model with the switched lossless-fabric model (switch buffers,
	// PFC, ECN) and — when its DCQCN flag is set — turns on the DCQCN
	// loop on every node.
	Congestion *congestion.Config
	// MemMode selects how managed registrations translate on every node:
	// "odp" (or "", the default — the paper's configuration), "pin"
	// (up-front pinning) or "npr" (the NP-RDMA no-pinning mitigation:
	// driver-level translation through a bounded DMA-able pool).
	MemMode string
	// NPRPoolBytes overrides the per-node NP-RDMA pool bound when
	// MemMode is "npr"; zero keeps npr.DefaultConfig's 2 MiB.
	NPRPoolBytes int
	// Transport selects the RC transport on every node: "rc" (or "",
	// the default — the hardware go-back-N machine) or "irn" (the
	// selective-repeat transport of internal/irn: SACKs, per-packet
	// loss recovery, BDP-bounded injection).
	Transport string
}

// Memory returns the host memory configuration. Network page fault
// resolution is dominated by driver/RNIC interaction rather than CPU
// speed (Figure 1 measures ≈0.5 ms even on the slow KNL host), so only
// the CPU-bound pinning cost scales with CPUFactor.
func (s System) Memory() hostmem.Config {
	cfg := hostmem.DefaultConfig()
	cfg.PinPerPage = sim.Time(float64(cfg.PinPerPage) * s.CPUFactor)
	if s.FaultScale > 0 {
		cfg.FaultResolveMin = sim.Time(float64(cfg.FaultResolveMin) * s.FaultScale)
		cfg.FaultResolveMax = sim.Time(float64(cfg.FaultResolveMax) * s.FaultScale)
	}
	return cfg
}

// FabricConfig returns the link model for the system.
func (s System) FabricConfig() fabric.Config {
	cfg := fabric.DefaultConfig()
	cfg.BandwidthGbps = s.Device.LinkGbps
	return cfg
}

// PrivateA is "Private servers A": ConnectX-3 56 Gb/s FDR; PSID MT_1100120019.
func PrivateA() System {
	return System{Name: "Private servers A", Device: rnic.ConnectX3(), CPUFactor: 1.0}
}

// KNL is "Private servers B": ConnectX-4 FDR on Xeon Phi 7250 hosts — the
// system all packet-level analysis ran on; PSID MT_2170111021.
func KNL() System {
	return System{Name: "KNL (Private servers B)", Device: rnic.ConnectX4(), CPUFactor: 4.5}
}

// ReedbushH is the Reedbush-H cluster: ConnectX-4 FDR, Xeon E5-2695v4; PSID MT_2160110021.
func ReedbushH() System {
	return System{Name: "Reedbush-H", Device: rnic.ConnectX4(), CPUFactor: 1.0}
}

// ReedbushL is the Reedbush-L cluster: ConnectX-4 100 Gb/s EDR; PSID MT_2180110032.
func ReedbushL() System {
	s := System{Name: "Reedbush-L", Device: rnic.ConnectX4(), CPUFactor: 1.0}
	s.Device.LinkGbps = 100
	return s
}

// ABCI is the ABCI cluster: ConnectX-4 EDR, Xeon Gold 6148; PSID MT_0000000095.
func ABCI() System {
	s := System{Name: "ABCI", Device: rnic.ConnectX4(), CPUFactor: 0.9}
	s.Device.LinkGbps = 100
	return s
}

// ITO is the ITO cluster: ConnectX-4 EDR; PSID FJT2180110032.
func ITO() System {
	s := System{Name: "ITO", Device: rnic.ConnectX4(), CPUFactor: 1.0}
	s.Device.LinkGbps = 100
	return s
}

// AzureHC is the Azure VM HC series: ConnectX-5 EDR, the one device with
// the ≈30 ms timeout floor; PSID MT_0000000010.
func AzureHC() System {
	return System{Name: "Azure VM HC Series", Device: rnic.ConnectX5(), CPUFactor: 1.0}
}

// AzureHBv2 is the Azure VM HBv2 series: ConnectX-6 HDR; PSID MT_0000000223.
func AzureHBv2() System {
	return System{Name: "Azure VM HBv2 Series", Device: rnic.ConnectX6(), CPUFactor: 1.0}
}

// All returns every system of Table I in row order.
func All() []System {
	return []System{
		PrivateA(), KNL(), ReedbushH(), ReedbushL(), ABCI(), ITO(), AzureHC(), AzureHBv2(),
	}
}

// ByName looks a system up by (case-sensitive) name prefix. An exact
// match always wins; otherwise the prefix must select exactly one system
// ("Reed" is ambiguous between Reedbush-H and Reedbush-L, "Reedbush-H"
// and "KNL" are not).
func ByName(name string) (System, error) {
	var matches []System
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
		if name != "" && strings.HasPrefix(s.Name, name) {
			matches = append(matches, s)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return System{}, fmt.Errorf("cluster: unknown system %q", name)
	default:
		names := make([]string, len(matches))
		for i, s := range matches {
			names[i] = s.Name
		}
		return System{}, fmt.Errorf("cluster: ambiguous system name %q (matches %s)",
			name, strings.Join(names, ", "))
	}
}

// Cluster is a built simulation: an engine, a fabric and n nodes.
type Cluster struct {
	Eng   *sim.Engine
	Fab   *fabric.Fabric
	Nodes []*rnic.RNIC
	Sys   System

	tel *telemetry.Hub
}

// Telemetry returns a hub over every registry in the cluster — the
// fabric's plus each device's — the way a monitoring agent sees a host's
// whole /sys/class/infiniband tree in one scrape.
func (c *Cluster) Telemetry() *telemetry.Hub {
	if c.tel == nil {
		c.tel = telemetry.NewHubOn(c.Eng)
		c.tel.Add(c.Fab.Telemetry())
		if net := c.Fab.Network(); net != nil {
			c.tel.Add(net.Telemetry())
		}
		for _, n := range c.Nodes {
			c.tel.Add(n.Telemetry())
		}
	}
	return c.tel
}

// Build creates a cluster of nodes node RNICs (LIDs 1..nodes) on a fresh
// engine seeded with seed.
func (s System) Build(seed int64, nodes int) *Cluster {
	return s.BuildOn(nil, seed, nodes)
}

// BuildOn is Build, but reuses eng — Reset with seed — instead of
// allocating a fresh engine, so tight trial loops recycle the engine's
// event storage. A nil eng falls back to Build's fresh engine. The
// resulting simulation is byte-identical either way.
func (s System) BuildOn(eng *sim.Engine, seed int64, nodes int) *Cluster {
	if eng == nil {
		eng = sim.New(seed)
	} else {
		eng.Reset(seed)
	}
	fab := fabric.New(eng, s.FabricConfig())
	if s.LossRate > 0 {
		fab.SetLossRate(s.LossRate)
	}
	if s.Congestion != nil {
		fab.EnableCongestion(*s.Congestion)
	}
	mode, nprCfg := rnic.KindODP, npr.DefaultConfig()
	switch s.MemMode {
	case "", "odp":
		// The default: on-demand registrations use Explicit ODP.
	case "pin":
		mode = rnic.KindPinned
	case "npr":
		mode = rnic.KindNPR
		if s.NPRPoolBytes > 0 {
			nprCfg.PoolBytes = s.NPRPoolBytes
		}
	default:
		panic(fmt.Sprintf("cluster: unknown memory mode %q", s.MemMode))
	}
	c := &Cluster{Eng: eng, Fab: fab, Sys: s, Nodes: make([]*rnic.RNIC, 0, nodes)}
	for i, name := range nodeNames(nodes) {
		n := rnic.New(fab, uint16(i+1), name, s.Device, s.Memory())
		if s.Congestion != nil && s.Congestion.DCQCN {
			// Before any QPs exist, so every QP gets a rate limiter.
			n.EnableDCQCN()
		}
		switch s.Transport {
		case "", "rc":
			// The default: the hardware go-back-N machine.
		case "irn":
			// Before any QPs exist, so every QP gets IRN state.
			n.EnableIRN()
		default:
			panic(fmt.Sprintf("cluster: unknown transport %q", s.Transport))
		}
		n.SetMemoryMode(mode, nprCfg)
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// nodeNameTable holds the node names "node0", "node1", … process-wide.
// A device's telemetry label and its port carry its name from the
// moment it is built, so a name cannot wait for its first read; instead
// each is rendered once per process, by the first build that needs it,
// and every later build shares it (kv-serve's 16 pods name their 65
// nodes once). Entries are never written again, so a returned prefix is
// safe to read without the lock.
var (
	nodeNameMu    sync.Mutex
	nodeNameTable []string
)

// nodeNames returns the names of n nodes, rendering those no build has
// needed yet.
func nodeNames(n int) []string {
	nodeNameMu.Lock()
	defer nodeNameMu.Unlock()
	for i := len(nodeNameTable); i < n; i++ {
		// Not fmt.Sprintf: its printer pool drops entries under -race and
		// at each GC, which made warm-trial allocation counts wander.
		nodeNameTable = append(nodeNameTable, "node"+strconv.Itoa(i))
	}
	return nodeNameTable[:n:n]
}
