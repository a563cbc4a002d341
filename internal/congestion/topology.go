package congestion

import "strconv"

// Topology describes the switch graph as data: switches grouped into
// tiers, directed links with per-link speed and latency factors, and the
// host attachment points. The network core builds whatever graph it is
// handed — the historical linear chain is just the one-tier instance
// ChainTopology produces, which is what keeps pre-topology goldens
// byte-identical.
//
// Topologies are plain values: builders allocate the slices once, every
// Adj row a sub-slice of one backing []Link (adjRows), and the result is
// shared read-only by every network built from it (sweep trials rebuild
// networks, not topologies).
type Topology struct {
	// Kind names the builder that produced the graph: "chain" or "clos".
	Kind string
	// Tiers is the number of switch tiers (1 for a chain, 2 for
	// leaf-spine, 3 for a fat-tree).
	Tiers int
	// Radix is the Clos switch port count (0 for chains).
	Radix int
	// Oversub records the uplink oversubscription factor the builder
	// applied (switch-to-switch links run at edge rate / Oversub).
	Oversub float64

	// TierNames maps a tier index to its label ("core"; "leaf","spine";
	// "edge","agg","core"). These become the "tier" telemetry label.
	TierNames []string
	// TierOf maps a switch index to its tier index.
	TierOf []int
	// Adj is each switch's ordered egress links. Order matters: it fixes
	// port-arena creation order (and therefore event tie-breaks), and BFS
	// visits neighbours in this order, so equal-cost hop sets are stable.
	Adj [][]Link
	// Leaves are the switches hosts attach to, in round-robin LID order:
	// LID l lands on Leaves[(l-1) % len(Leaves)]. For a chain every
	// switch is a leaf, reproducing the old modulo placement exactly.
	Leaves []int
}

// Link is one directed switch-to-switch link.
type Link struct {
	// To is the far-end switch index.
	To int
	// SpeedDiv divides the edge link rate for this link. Chains put the
	// configured UplinkFactor here; 1 means full edge rate. Stored as a
	// divisor (not a multiplier) so the chain's rate works out to the
	// exact float the old linkGbps/UplinkFactor division produced.
	SpeedDiv float64
	// PropFactor scales the per-hop propagation delay (1 = one fabric
	// hop, the only value the builders currently emit).
	PropFactor float64
}

// ChainTopology is the degenerate one-tier graph the pre-topology code
// hard-wired: switches in a line, every switch a leaf, inter-switch links
// oversubscribed by uplinkFactor. Arguments are clamped exactly like
// Config.withDefaults clamps Switches and UplinkFactor, so the two paths
// can never disagree.
func ChainTopology(switches int, uplinkFactor float64) Topology {
	if switches <= 0 {
		switches = 2
	}
	if uplinkFactor < 1 {
		uplinkFactor = 1
	}
	t := Topology{
		Kind:      "chain",
		Tiers:     1,
		Oversub:   uplinkFactor,
		TierNames: []string{"core"},
		TierOf:    make([]int, switches),
		Adj: adjRows(switches, func(i int) int {
			return min(i, 1) + min(switches-1-i, 1)
		}),
		Leaves: make([]int, switches),
	}
	for i := 0; i < switches; i++ {
		t.Leaves[i] = i
		// Left neighbour before right: the order the old builder created
		// the left/right ports in, preserved for byte-identical goldens.
		if i > 0 {
			t.Adj[i] = append(t.Adj[i], Link{To: i - 1, SpeedDiv: uplinkFactor, PropFactor: 1})
		}
		if i < switches-1 {
			t.Adj[i] = append(t.Adj[i], Link{To: i + 1, SpeedDiv: uplinkFactor, PropFactor: 1})
		}
	}
	return t
}

// ClosTopology builds a folded-Clos fabric. tiers=2 is a leaf-spine:
// radix leaves each connected to radix/2 spines. tiers=3 is a k-ary
// fat-tree with k=radix: k pods of k/2 edge and k/2 aggregation switches
// plus (k/2)² cores. All switch-to-switch links run at edge rate /
// oversub (oversub 1 = rearrangeably non-blocking). Hosts attach
// round-robin across the bottom tier. Invalid arguments are clamped:
// radix to the next even value ≥ 2, tiers to 2 unless 3, oversub to ≥ 1.
func ClosTopology(tiers, radix int, oversub float64) Topology {
	if radix < 2 {
		radix = 4
	}
	if radix%2 != 0 {
		radix++
	}
	if oversub < 1 {
		oversub = 1
	}
	if tiers != 3 {
		tiers = 2
	}
	link := func(to int) Link { return Link{To: to, SpeedDiv: oversub, PropFactor: 1} }
	if tiers == 2 {
		leaves, spines := radix, radix/2
		t := Topology{
			Kind:      "clos",
			Tiers:     2,
			Radix:     radix,
			Oversub:   oversub,
			TierNames: []string{"leaf", "spine"},
			TierOf:    make([]int, leaves+spines),
			Adj: adjRows(leaves+spines, func(i int) int {
				if i < leaves {
					return spines
				}
				return leaves
			}),
			Leaves: make([]int, leaves),
		}
		for l := 0; l < leaves; l++ {
			t.Leaves[l] = l
			for s := 0; s < spines; s++ {
				t.Adj[l] = append(t.Adj[l], link(leaves+s))
			}
		}
		for s := 0; s < spines; s++ {
			t.TierOf[leaves+s] = 1
			for l := 0; l < leaves; l++ {
				t.Adj[leaves+s] = append(t.Adj[leaves+s], link(l))
			}
		}
		return t
	}
	// Three tiers: k-ary fat-tree. Edge switches are indexed pod-major
	// first, then aggregation switches pod-major, then the core groups
	// (core group a serves every pod's a-th aggregation switch).
	k := radix
	half := k / 2
	edges, aggs, cores := k*half, k*half, half*half
	t := Topology{
		Kind:      "clos",
		Tiers:     3,
		Radix:     radix,
		Oversub:   oversub,
		TierNames: []string{"edge", "agg", "core"},
		TierOf:    make([]int, edges+aggs+cores),
		// An edge links to its pod's aggs; an agg to its pod's edges and
		// its core group; a core to one agg per pod.
		Adj: adjRows(edges+aggs+cores, func(i int) int {
			if i < edges {
				return half
			}
			return k
		}),
		Leaves: make([]int, edges),
	}
	aggIdx := func(pod, a int) int { return edges + pod*half + a }
	coreIdx := func(group, c int) int { return edges + aggs + group*half + c }
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			idx := pod*half + e
			t.Leaves[idx] = idx
			for a := 0; a < half; a++ {
				t.Adj[idx] = append(t.Adj[idx], link(aggIdx(pod, a)))
			}
		}
		for a := 0; a < half; a++ {
			idx := aggIdx(pod, a)
			t.TierOf[idx] = 1
			for e := 0; e < half; e++ {
				t.Adj[idx] = append(t.Adj[idx], link(pod*half+e))
			}
			for c := 0; c < half; c++ {
				t.Adj[idx] = append(t.Adj[idx], link(coreIdx(a, c)))
			}
		}
	}
	for g := 0; g < half; g++ {
		for c := 0; c < half; c++ {
			idx := coreIdx(g, c)
			t.TierOf[idx] = 2
			for pod := 0; pod < k; pod++ {
				t.Adj[idx] = append(t.Adj[idx], link(aggIdx(pod, g)))
			}
		}
	}
	return t
}

// PodTopology builds one pod of a k-ary fat-tree as a standalone cell:
// k/2 edge switches fully meshed to k/2 aggregation switches, hosts
// attached round-robin across the edges. It is the per-shard slice of
// ClosTopology(3, k, oversub) used by the sharded fabric-scale
// scenarios: each causal domain simulates its own pod cell in full
// switch-level detail, and the core tier the pods would share is
// abstracted into the shard layer's boundary links (internal/shard) —
// the core carries only the declared cross-pod traffic, so modeling it
// per packet inside a single engine would recouple every pod for
// nothing. Switch indices are edges first, then aggs, matching the
// fat-tree builder's pod-major layout.
func PodTopology(radix int, oversub float64) Topology {
	if radix < 2 {
		radix = 4
	}
	if radix%2 != 0 {
		radix++
	}
	if oversub < 1 {
		oversub = 1
	}
	half := radix / 2
	t := Topology{
		Kind:      "pod",
		Tiers:     2,
		Radix:     radix,
		Oversub:   oversub,
		TierNames: []string{"edge", "agg"},
		TierOf:    make([]int, 2*half),
		Adj:       adjRows(2*half, func(int) int { return half }),
		Leaves:    make([]int, half),
	}
	link := func(to int) Link { return Link{To: to, SpeedDiv: oversub, PropFactor: 1} }
	for e := 0; e < half; e++ {
		t.Leaves[e] = e
		for a := 0; a < half; a++ {
			t.Adj[e] = append(t.Adj[e], link(half+a))
		}
	}
	for a := 0; a < half; a++ {
		t.TierOf[half+a] = 1
		for e := 0; e < half; e++ {
			t.Adj[half+a] = append(t.Adj[half+a], link(e))
		}
	}
	return t
}

// adjRows returns n empty adjacency rows carved from one backing array:
// row i has room for exactly deg(i) links, so a builder appends each
// switch's links in place and a fat-tree costs one []Link instead of one
// per switch (and its regrowths). The rows' capacities are capped, so a
// row that outgrew its degree would reallocate, never overwrite the next.
func adjRows(n int, deg func(i int) int) [][]Link {
	total := 0
	for i := 0; i < n; i++ {
		total += deg(i)
	}
	links := make([]Link, total)
	adj := make([][]Link, n)
	for i := range adj {
		d := deg(i)
		adj[i], links = links[:0:d], links[d:]
	}
	return adj
}

// SwitchCount returns the number of switches in the graph.
func (t Topology) SwitchCount() int { return len(t.Adj) }

// LinkCount returns the number of directed switch-to-switch links.
func (t Topology) LinkCount() int {
	n := 0
	for _, adj := range t.Adj {
		n += len(adj)
	}
	return n
}

// TierName returns the tier label of switch sw.
func (t Topology) TierName(sw int) string { return t.TierNames[t.TierOf[sw]] }

// Summary renders a one-line human description, used by `odpsim show`.
func (t Topology) Summary() string {
	s := t.Kind + ": " + strconv.Itoa(t.Tiers) + " tier(s)"
	if t.Radix > 0 {
		s += ", radix " + strconv.Itoa(t.Radix)
	}
	s += ", " + strconv.Itoa(t.SwitchCount()) + " switches, " +
		strconv.Itoa(t.LinkCount()) + " links, " +
		strconv.Itoa(len(t.Leaves)) + " host attach points"
	if t.Oversub > 1 {
		s += ", oversubscription " + strconv.FormatFloat(t.Oversub, 'g', -1, 64) + "x"
	}
	return s
}
