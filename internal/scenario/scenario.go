// Package scenario is the declarative experiment layer: a Scenario value
// describes one experiment — system, nodes, workload, per-side ODP mode,
// fault knobs (RNR delay, page-fault latency, loss rate, congestion),
// sweep grid, trials and renderer — and the package resolves, validates
// and executes it through a registered Workload implementation. Every
// paper artifact (Figures 1–12, Table 13) is one registered Scenario;
// users add new experiments as JSON specs without writing Go (see
// LoadSpec and DESIGN.md §7).
//
// Execution inherits internal/parallel's determinism contract unchanged:
// workloads derive every point's seed from the point's grid position, so
// a scenario's rendered output is byte-identical for any worker count —
// which is what lets CI diff regenerated outputs against results/.
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/sim"
)

// Scenario declares one experiment. The zero value of every field means
// "workload default"; workloads reject combinations they cannot honour
// in their Validate hook. Field names double as the JSON spec schema.
type Scenario struct {
	// Name identifies the scenario in the registry and names its output
	// file (<name>.txt) under -o.
	Name string `json:"name"`
	// Title is the header line printed before the result. The
	// placeholders {trials} and {ops} expand to the resolved values, so
	// quick-mode runs print their actual counts.
	Title string `json:"title,omitempty"`
	// Workload selects the registered workload kind (see Workloads()).
	Workload string `json:"workload"`

	// System picks the Table-I system by unambiguous name prefix
	// (cluster.ByName). Empty selects the workload's default (KNL).
	System string `json:"system,omitempty"`
	// Systems, for multi-system workloads (timeout-sweep, argodsm),
	// overrides the default system list.
	Systems []string `json:"systems,omitempty"`
	// Nodes is the cluster size (default 2).
	Nodes int `json:"nodes,omitempty"`
	// Seed is the base simulation seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Trials is the number of repetitions for probability/average
	// figures. Workloads that average over trials reject 0.
	Trials int `json:"trials,omitempty"`

	// Mode selects the ODP sides: "none", "server", "client" or "both".
	Mode string `json:"mode,omitempty"`
	// Ops is the number of operations (READ count, perftest iterations).
	Ops int `json:"ops,omitempty"`
	// QPs is the queue-pair count (round-robin).
	QPs int `json:"qps,omitempty"`
	// Size is the per-operation message size in bytes.
	Size int `json:"size,omitempty"`
	// CACK is the Local ACK Timeout exponent (0 keeps the workload
	// default).
	CACK int `json:"cack,omitempty"`
	// Retry is the Retry Count C_retry.
	Retry int `json:"retry,omitempty"`
	// RNRDelayMs is the minimal RNR NAK delay in milliseconds.
	RNRDelayMs float64 `json:"rnr_delay_ms,omitempty"`
	// IntervalMs is the fixed posting interval in milliseconds (grid-less
	// workloads: bench, trace).
	IntervalMs float64 `json:"interval_ms,omitempty"`

	// Window is the outstanding-operation bound for bandwidth runs.
	Window int `json:"window,omitempty"`
	// Pages rotates perftest targets over this many pages.
	Pages int `json:"pages,omitempty"`
	// Implicit selects Implicit ODP on the ODP sides (perftest).
	Implicit bool `json:"implicit,omitempty"`
	// Prefetch advises ODP pages before measuring (ibv_advise_mr).
	Prefetch bool `json:"prefetch,omitempty"`
	// DummyPing enables the §IX-A dummy-communication workaround.
	DummyPing bool `json:"dummy_ping,omitempty"`
	// Waves bounds the packet-level-sampled shuffle waves per sparkucx
	// run (0 = workload default, 2).
	Waves int `json:"waves,omitempty"`
	// MemoryBytes is the DSM size for argodsm (0 = 10 MB).
	MemoryBytes int `json:"memory_bytes,omitempty"`
	// HistHi sets the argodsm histogram upper bounds, aligned with the
	// resolved system list.
	HistHi []float64 `json:"hist_hi,omitempty"`

	// Pattern selects the collective traffic shape: "incast" (every node
	// WRITEs to node 0) or "shuffle" (all-to-all). Collective workload
	// only.
	Pattern string `json:"pattern,omitempty"`

	// Shards is how many workers run the scenario's independent pods in
	// parallel. Only kv-serve has such pods; other workloads run one
	// engine and ignore it. Output is byte-identical at every value, and
	// 0 auto-tunes to GOMAXPROCS. The odpsim `-shards` flag overrides it.
	Shards int `json:"shards,omitempty"`

	// Memory selects how managed registrations translate on every node:
	// pin | odp | npr. Absent means odp — the paper's configuration, and
	// the one every pre-existing scenario renders byte-identically under.
	Memory *MemorySpec `json:"memory,omitempty"`

	// Transport selects the RC transport on every node: rc | irn.
	// Absent means rc — the hardware go-back-N machine every
	// pre-existing scenario renders byte-identically under.
	Transport *TransportSpec `json:"transport,omitempty"`

	// Inner names the scenario a wrapper workload (mem-compare) derives
	// its per-mode runs from; empty for ordinary workloads.
	Inner string `json:"inner,omitempty"`

	// Faults bundles the fault-injection knobs routed into the built
	// clusters (loss, page-fault latency scale).
	Faults Faults `json:"faults,omitempty"`

	// Congestion, when present, replaces the fabric's analytic latency
	// model with the switched lossless-fabric model of
	// internal/congestion (finite switch buffers, optional PFC and ECN,
	// optional DCQCN rate control).
	Congestion *CongestionSpec `json:"congestion,omitempty"`

	// Grid is the sweep axis: an interval range in milliseconds or an
	// explicit integer list (C_ACK values, QP counts).
	Grid *Grid `json:"grid,omitempty"`
	// Series declares per-series variants (Figure 6a's three RNR delays,
	// Figure 7's 2/3/4 operations, Figure 11's two operation counts).
	Series []Variant `json:"series,omitempty"`
	// StepMs is the output sampling step for progress renderings
	// (Figure 11); usually set per variant.
	StepMs float64 `json:"step_ms,omitempty"`

	// Renderer picks a workload-specific output style where one workload
	// has several (timeout-prob-sweep: "joined" or "per-series";
	// perftest: "lat", "bw" or "compare").
	Renderer string `json:"renderer,omitempty"`

	// Slow marks scenarios whose full-fidelity run takes tens of seconds
	// (fig9, tab13); `odpsim run --all -short` skips them.
	Slow bool `json:"slow,omitempty"`
	// Quick holds the reduced-fidelity overrides -quick applies.
	Quick *Quick `json:"quick,omitempty"`
}

// Variant is a per-series override inside one scenario.
type Variant struct {
	// Label names the series in the rendered table.
	Label string `json:"label,omitempty"`
	// Ops overrides Scenario.Ops for this series.
	Ops int `json:"ops,omitempty"`
	// RNRDelayMs overrides the RNR delay for this series.
	RNRDelayMs float64 `json:"rnr_delay_ms,omitempty"`
	// StepMs overrides the output sampling step for this series.
	StepMs float64 `json:"step_ms,omitempty"`
	// Grid overrides the sweep grid for this series.
	Grid *Grid `json:"grid,omitempty"`
}

// Faults are the fault-injection knobs. They flow into cluster.System
// before any cluster is built, so every workload inherits them.
type Faults struct {
	// LossRate drops each fabric packet independently with this
	// probability (0 ≤ p < 1).
	LossRate float64 `json:"loss_rate,omitempty"`
	// PageFaultScale multiplies the kernel page-fault resolution latency
	// (0 = 1.0).
	PageFaultScale float64 `json:"page_fault_scale,omitempty"`
}

// CongestionSpec is the JSON face of congestion.Config: buffer sizes in
// KB instead of bytes and DCQCN reduced to one switch (the tuned loop
// parameters keep their package defaults). Zero fields select the
// congestion package's defaults, so `"congestion": {}` alone turns the
// switched model on with the paper-calibrated topology.
type CongestionSpec struct {
	// Topology declares the switch graph (chain or Clos). Absent keeps
	// the implicit linear chain built from Switches and UplinkFactor.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Switches is the linear-core switch count (default 2).
	Switches int `json:"switches,omitempty"`
	// UplinkFactor oversubscribes the inter-switch links (default 4).
	UplinkFactor float64 `json:"uplink_factor,omitempty"`
	// BufferKB is each switch's shared buffer in KB (default 8).
	BufferKB float64 `json:"buffer_kb,omitempty"`
	// PFC enables pause/resume frames.
	PFC bool `json:"pfc,omitempty"`
	// XOffKB / XOnKB are the PFC thresholds in KB (defaults 6 / 2;
	// XOff must stay above XOn).
	XOffKB float64 `json:"xoff_kb,omitempty"`
	XOnKB  float64 `json:"xon_kb,omitempty"`
	// ECN enables congestion-experienced marking.
	ECN bool `json:"ecn,omitempty"`
	// ECNThresholdKB is the marking threshold in KB (default 1.5).
	ECNThresholdKB float64 `json:"ecn_threshold_kb,omitempty"`
	// DCQCN turns on the end-to-end rate-control loop (implies ECN).
	DCQCN bool `json:"dcqcn,omitempty"`
}

// TopologySpec is the JSON face of congestion.Topology's builders: a
// declarative switch graph for the congestion block. `"kind": "chain"`
// is the historical linear chain; `"kind": "clos"` builds a leaf-spine
// (tiers 2) or fat-tree (tiers 3) fabric. Hosts attach round-robin by
// LID across the bottom tier, which is how the spec reaches
// cluster.System node placement: the LIDs BuildOn assigns land on leaves
// in declaration order.
type TopologySpec struct {
	// Kind is "chain" or "clos".
	Kind string `json:"kind"`
	// Switches is the chain length (chain only; default: the congestion
	// block's switches field).
	Switches int `json:"switches,omitempty"`
	// Tiers is the Clos tier count: 2 = leaf-spine, 3 = fat-tree
	// (clos only; default 2).
	Tiers int `json:"tiers,omitempty"`
	// Radix is the Clos switch port count, even and ≥ 2 (clos only;
	// default 4).
	Radix int `json:"radix,omitempty"`
	// Oversubscription divides the switch-to-switch link rate (≥ 1;
	// default: the congestion block's uplink_factor, itself default 4).
	Oversubscription float64 `json:"oversubscription,omitempty"`
}

// build resolves the spec into a concrete switch graph, defaulting
// unset fields from the enclosing congestion config.
func (ts *TopologySpec) build(cfg congestion.Config) congestion.Topology {
	over := ts.Oversubscription
	if over == 0 {
		over = cfg.UplinkFactor
	}
	if ts.Kind == "clos" {
		tiers := ts.Tiers
		if tiers == 0 {
			tiers = 2
		}
		radix := ts.Radix
		if radix == 0 {
			radix = 4
		}
		return congestion.ClosTopology(tiers, radix, over)
	}
	sw := ts.Switches
	if sw == 0 {
		sw = cfg.Switches
	}
	return congestion.ChainTopology(sw, over)
}

// validate rejects graphs the builders would otherwise silently clamp,
// so a bad spec fails at load time with a message.
func (ts *TopologySpec) validate(name string) error {
	switch ts.Kind {
	case "chain":
		if ts.Tiers != 0 || ts.Radix != 0 {
			return fmt.Errorf("scenario %q: topology kind \"chain\" does not take tiers or radix", name)
		}
		if ts.Switches < 0 {
			return fmt.Errorf("scenario %q: topology.switches must not be negative", name)
		}
	case "clos":
		if ts.Switches != 0 {
			return fmt.Errorf("scenario %q: topology kind \"clos\" takes tiers and radix, not switches", name)
		}
		if ts.Tiers != 0 && ts.Tiers != 2 && ts.Tiers != 3 {
			return fmt.Errorf("scenario %q: topology.tiers must be 2 (leaf-spine) or 3 (fat-tree), got %d", name, ts.Tiers)
		}
		if ts.Radix != 0 && (ts.Radix < 2 || ts.Radix%2 != 0) {
			return fmt.Errorf("scenario %q: topology.radix must be an even number >= 2, got %d", name, ts.Radix)
		}
	default:
		return fmt.Errorf("scenario %q: unknown topology kind %q (want chain or clos)", name, ts.Kind)
	}
	if ts.Oversubscription != 0 && ts.Oversubscription < 1 {
		return fmt.Errorf("scenario %q: topology.oversubscription must be at least 1", name)
	}
	return nil
}

// Label renders the compact form the `odpsim list` topology column uses
// ("chain*4", "clos/2t/r4").
func (ts *TopologySpec) Label() string {
	if ts.Kind == "clos" {
		tiers, radix := ts.Tiers, ts.Radix
		if tiers == 0 {
			tiers = 2
		}
		if radix == 0 {
			radix = 4
		}
		return fmt.Sprintf("clos/%dt/r%d", tiers, radix)
	}
	if ts.Switches > 0 {
		return fmt.Sprintf("chain*%d", ts.Switches)
	}
	return "chain"
}

// BuiltTopology resolves the switch graph the scenario declares through
// its congestion block, reporting ok=false when it declares none (the
// implicit chain). The CLI uses this for topology summaries.
func (sc *Scenario) BuiltTopology() (topo congestion.Topology, ok bool) {
	if sc.Congestion == nil || sc.Congestion.Topology == nil {
		return congestion.Topology{}, false
	}
	return sc.Congestion.Config().Topology, true
}

// MemorySpec is the JSON face of the memory-mode switch: which
// translation path managed registrations use on every node, plus the
// NP-RDMA pool bound for the npr mode.
type MemorySpec struct {
	// Mode is "pin", "odp" or "npr" ("" = odp).
	Mode string `json:"mode,omitempty"`
	// PoolKB bounds the per-node NP-RDMA DMA-able pool in KB (0 keeps
	// npr.DefaultConfig's 2 MiB). Only meaningful with mode "npr".
	PoolKB float64 `json:"pool_kb,omitempty"`
}

// validate checks the memory block against the modes cluster.BuildOn
// accepts, so a bad spec fails at load time with a message instead of
// at build time with a panic.
func (ms *MemorySpec) validate(name string) error {
	switch ms.Mode {
	case "", "pin", "odp", "npr":
	default:
		return fmt.Errorf("scenario %q: unknown memory mode %q (want pin, odp or npr)", name, ms.Mode)
	}
	if ms.PoolKB < 0 {
		return fmt.Errorf("scenario %q: memory.pool_kb must not be negative", name)
	}
	if ms.PoolKB > 0 && ms.Mode != "npr" {
		return fmt.Errorf("scenario %q: memory.pool_kb requires mode \"npr\"", name)
	}
	return nil
}

// TransportSpec is the JSON face of the transport switch: which RC
// machine every node's QPs run.
type TransportSpec struct {
	// Mode is "rc" (go-back-N) or "irn" (selective repeat); "" = rc.
	Mode string `json:"mode,omitempty"`
}

// validate checks the transport block against the modes cluster.BuildOn
// accepts.
func (ts *TransportSpec) validate(name string) error {
	switch ts.Mode {
	case "", "rc", "irn":
		return nil
	default:
		return fmt.Errorf("scenario %q: unknown transport mode %q (want rc or irn)", name, ts.Mode)
	}
}

// kb converts a KB spec field to bytes, keeping zero as "default".
func kb(x float64) int { return int(x * 1024) }

// Config maps the spec onto a congestion.Config, starting from the
// package defaults so unset fields keep their calibrated values.
func (cs *CongestionSpec) Config() congestion.Config {
	cfg := cs.scalars()
	if cs.Topology != nil {
		cfg.Topology = cs.Topology.build(cfg)
	}
	return cfg
}

// scalars is Config without the topology: every threshold and flag,
// for checks that must not build a fat-tree to read them.
func (cs *CongestionSpec) scalars() congestion.Config {
	cfg := congestion.DefaultConfig()
	if cs.Switches > 0 {
		cfg.Switches = cs.Switches
	}
	if cs.UplinkFactor > 0 {
		cfg.UplinkFactor = cs.UplinkFactor
	}
	if cs.BufferKB > 0 {
		cfg.BufferBytes = kb(cs.BufferKB)
	}
	cfg.PFC = cs.PFC
	if cs.XOffKB > 0 {
		cfg.XOffBytes = kb(cs.XOffKB)
	}
	if cs.XOnKB > 0 {
		cfg.XOnBytes = kb(cs.XOnKB)
	}
	cfg.ECN = cs.ECN
	if cs.ECNThresholdKB > 0 {
		cfg.ECNThresholdBytes = kb(cs.ECNThresholdKB)
	}
	cfg.DCQCN = cs.DCQCN
	return cfg
}

// validate checks the congestion block against the same rules
// congestion.NewNetwork enforces by panic, so a bad spec fails at load
// time with a message instead of at build time with a stack trace. The
// sign checks run in field order, so a spec with several bad fields
// always names the first.
func (cs *CongestionSpec) validate(name string) error {
	for _, f := range [...]struct {
		field string
		x     float64
	}{
		{"switches", float64(cs.Switches)}, {"uplink_factor", cs.UplinkFactor},
		{"buffer_kb", cs.BufferKB}, {"xoff_kb", cs.XOffKB}, {"xon_kb", cs.XOnKB},
		{"ecn_threshold_kb", cs.ECNThresholdKB},
	} {
		if f.x < 0 {
			return fmt.Errorf("scenario %q: congestion.%s must not be negative", name, f.field)
		}
	}
	if cs.PFC {
		cfg := cs.scalars()
		if cfg.XOffBytes <= cfg.XOnBytes {
			return fmt.Errorf("scenario %q: congestion xoff_kb (%g KB effective) must be greater than xon_kb (%g KB effective)",
				name, float64(cfg.XOffBytes)/1024, float64(cfg.XOnBytes)/1024)
		}
	}
	if cs.Topology != nil {
		if err := cs.Topology.validate(name); err != nil {
			return err
		}
	}
	return nil
}

// Quick is the reduced-fidelity profile applied by quick mode.
type Quick struct {
	// Trials replaces Scenario.Trials when positive.
	Trials int `json:"trials,omitempty"`
	// GridScale multiplies every grid step (main and per-series) when
	// positive — ×4 turns Figure 4's 0.25 ms grid into the 1 ms quick
	// grid.
	GridScale float64 `json:"grid_scale,omitempty"`
	// Ops replaces Scenario.Ops when positive.
	Ops int `json:"ops,omitempty"`
	// List replaces the main grid's integer list when non-empty.
	List []int `json:"list,omitempty"`
	// Waves replaces Scenario.Waves when positive.
	Waves int `json:"waves,omitempty"`
}

// expandTitle substitutes the {trials} and {ops} placeholders.
func expandTitle(title string, trials, ops int) string {
	title = strings.ReplaceAll(title, "{trials}", strconv.Itoa(trials))
	return strings.ReplaceAll(title, "{ops}", strconv.Itoa(ops))
}

// Title of the scenario with placeholders expanded. When the operation
// count varies per series (Figure 11), {ops} falls back to the first
// variant's count; per-variant headers use VariantTitle instead.
func (sc *Scenario) ExpandedTitle() string {
	ops := sc.Ops
	if ops == 0 {
		for _, v := range sc.Series {
			if v.Ops > 0 {
				ops = v.Ops
				break
			}
		}
	}
	return expandTitle(sc.Title, sc.Trials, ops)
}

// VariantTitle expands the title against one variant's operation count.
func (sc *Scenario) VariantTitle(v Variant) string {
	ops := v.Ops
	if ops == 0 {
		ops = sc.Ops
	}
	return expandTitle(sc.Title, sc.Trials, ops)
}

// ApplyQuick returns a copy with the quick profile folded in. A scenario
// without a Quick profile is returned unchanged (its full run is already
// fast).
func (sc Scenario) ApplyQuick() Scenario {
	q := sc.Quick
	if q == nil {
		return sc
	}
	if q.Trials > 0 {
		sc.Trials = q.Trials
	}
	if q.Ops > 0 {
		sc.Ops = q.Ops
	}
	if q.Waves > 0 {
		sc.Waves = q.Waves
	}
	if q.GridScale > 0 {
		if sc.Grid != nil {
			g := *sc.Grid
			g.StepMs *= q.GridScale
			sc.Grid = &g
		}
		if len(sc.Series) > 0 {
			series := append([]Variant(nil), sc.Series...)
			for i := range series {
				if series[i].Grid != nil {
					g := *series[i].Grid
					g.StepMs *= q.GridScale
					series[i].Grid = &g
				}
			}
			sc.Series = series
		}
	}
	if len(q.List) > 0 && sc.Grid != nil {
		g := *sc.Grid
		g.List = append([]int(nil), q.List...)
		sc.Grid = &g
	}
	return sc
}

// parseMode checks the Mode field against the ODP-side vocabulary ("" is
// each workload's own default).
func (sc *Scenario) parseMode() error {
	switch sc.Mode {
	case "", "none", "server", "client", "both":
		return nil
	}
	return fmt.Errorf("scenario %q: unknown ODP mode %q (want none, server, client or both)", sc.Name, sc.Mode)
}

// Validate checks the scenario's declarative fields: a registered
// workload, a resolvable system, a well-formed grid, sane fault knobs and
// non-negative counts. Workload-specific requirements (e.g. "this
// workload averages over trials, so Trials must be ≥ 1") are checked by
// the workload's own Validate hook at run time.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Workload == "" {
		return fmt.Errorf("scenario %q: missing workload", sc.Name)
	}
	if _, ok := workloads[sc.Workload]; !ok {
		return fmt.Errorf("scenario %q: unknown workload %q (have %s)",
			sc.Name, sc.Workload, strings.Join(Workloads(), ", "))
	}
	if err := sc.parseMode(); err != nil {
		return err
	}
	for _, name := range append([]string{sc.System}, sc.Systems...) {
		if name == "" {
			continue
		}
		if _, err := cluster.ByName(name); err != nil {
			return fmt.Errorf("scenario %q: %v", sc.Name, err)
		}
	}
	for field, n := range map[string]int{
		"nodes": sc.Nodes, "trials": sc.Trials, "ops": sc.Ops, "qps": sc.QPs,
		"size": sc.Size, "cack": sc.CACK, "retry": sc.Retry, "window": sc.Window,
		"pages": sc.Pages, "waves": sc.Waves, "memory_bytes": sc.MemoryBytes,
		"shards": sc.Shards,
	} {
		if n < 0 {
			return fmt.Errorf("scenario %q: %s must not be negative", sc.Name, field)
		}
	}
	for field, x := range map[string]float64{
		"rnr_delay_ms": sc.RNRDelayMs, "interval_ms": sc.IntervalMs, "step_ms": sc.StepMs,
	} {
		if x < 0 {
			return fmt.Errorf("scenario %q: %s must not be negative", sc.Name, field)
		}
	}
	if sc.Faults.LossRate < 0 || sc.Faults.LossRate >= 1 {
		return fmt.Errorf("scenario %q: loss_rate must be in [0, 1)", sc.Name)
	}
	if sc.Faults.PageFaultScale < 0 {
		return fmt.Errorf("scenario %q: page_fault_scale must not be negative", sc.Name)
	}
	if sc.Congestion != nil {
		if err := sc.Congestion.validate(sc.Name); err != nil {
			return err
		}
	}
	if sc.Memory != nil {
		if err := sc.Memory.validate(sc.Name); err != nil {
			return err
		}
	}
	if sc.Transport != nil {
		if err := sc.Transport.validate(sc.Name); err != nil {
			return err
		}
	}
	if err := sc.Grid.validate(sc.Name, "grid"); err != nil {
		return err
	}
	for i, v := range sc.Series {
		if err := v.Grid.validate(sc.Name, fmt.Sprintf("series[%d].grid", i)); err != nil {
			return err
		}
		if v.Ops < 0 || v.RNRDelayMs < 0 || v.StepMs < 0 {
			return fmt.Errorf("scenario %q: series[%d] has a negative field", sc.Name, i)
		}
	}
	return nil
}

// resolveSystem looks a system name up and applies the fault knobs; an
// empty name selects the fallback.
func (sc *Scenario) resolveSystem(name string, fallback cluster.System) (cluster.System, error) {
	s := fallback
	if name != "" {
		var err error
		s, err = cluster.ByName(name)
		if err != nil {
			return cluster.System{}, fmt.Errorf("scenario %q: %v", sc.Name, err)
		}
	}
	return sc.ApplyFaults(s), nil
}

// ApplyFaults folds the scenario's fault knobs into a system value.
// Workloads with built-in system tables (sparkucx's Table-13 rows) route
// each system through this so declared faults reach every built cluster.
func (sc *Scenario) ApplyFaults(s cluster.System) cluster.System {
	if sc.Faults.LossRate > 0 {
		s.LossRate = sc.Faults.LossRate
	}
	if sc.Faults.PageFaultScale > 0 {
		s.FaultScale = sc.Faults.PageFaultScale
	}
	if sc.Congestion != nil {
		cfg := sc.Congestion.Config()
		s.Congestion = &cfg
	}
	if sc.Memory != nil {
		s.MemMode = sc.Memory.Mode
		if sc.Memory.PoolKB > 0 {
			s.NPRPoolBytes = kb(sc.Memory.PoolKB)
		}
	}
	if sc.Transport != nil {
		s.Transport = sc.Transport.Mode
	}
	return s
}

// SeedOrDefault returns the base seed (1 when unset, matching every
// CLI's historical -seed default).
func (sc *Scenario) SeedOrDefault() int64 {
	if sc.Seed != 0 {
		return sc.Seed
	}
	return 1
}

// RNRDelay returns the minimal RNR NAK delay (the paper's 1.28 ms when
// unset).
func (sc *Scenario) RNRDelay() sim.Time {
	if sc.RNRDelayMs > 0 {
		return sim.FromMillis(sc.RNRDelayMs)
	}
	return sim.FromMillis(1.28)
}

// Interval returns the posting interval.
func (sc *Scenario) Interval() sim.Time { return sim.FromMillis(sc.IntervalMs) }
