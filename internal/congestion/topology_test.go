package congestion

import (
	"fmt"
	"slices"
	"testing"

	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

func TestChainTopologyShape(t *testing.T) {
	topo := ChainTopology(3, 4)
	if topo.SwitchCount() != 3 || topo.LinkCount() != 4 {
		t.Fatalf("chain(3): %d switches, %d links, want 3, 4", topo.SwitchCount(), topo.LinkCount())
	}
	if len(topo.Leaves) != 3 {
		t.Fatalf("chain leaves = %v, want every switch", topo.Leaves)
	}
	// Adjacency order is left-then-right: the port creation order the
	// old chain builder used, load-bearing for golden compatibility.
	if got := topo.Adj[1]; got[0].To != 0 || got[1].To != 2 {
		t.Fatalf("middle switch adjacency = %+v, want [left right]", got)
	}
	if topo.Adj[0][0].SpeedDiv != 4 {
		t.Fatalf("core SpeedDiv = %v, want the uplink factor", topo.Adj[0][0].SpeedDiv)
	}
	if topo.TierName(0) != "core" {
		t.Fatalf("chain tier = %q, want core", topo.TierName(0))
	}
}

func TestClosTopologyShape(t *testing.T) {
	ls := ClosTopology(2, 4, 4)
	if ls.SwitchCount() != 6 || ls.LinkCount() != 16 || len(ls.Leaves) != 4 {
		t.Fatalf("leaf-spine(r4): %d switches, %d links, %d leaves, want 6, 16, 4",
			ls.SwitchCount(), ls.LinkCount(), len(ls.Leaves))
	}
	if ls.TierName(0) != "leaf" || ls.TierName(4) != "spine" {
		t.Fatalf("tiers = %q, %q, want leaf, spine", ls.TierName(0), ls.TierName(4))
	}

	ft := ClosTopology(3, 4, 1)
	// k=4 fat-tree: 4 pods x (2 edge + 2 agg) + 4 cores = 20 switches;
	// 16 edge-agg + 16 agg-core undirected links = 64 directed.
	if ft.SwitchCount() != 20 || ft.LinkCount() != 64 || len(ft.Leaves) != 8 {
		t.Fatalf("fat-tree(k4): %d switches, %d links, %d leaves, want 20, 64, 8",
			ft.SwitchCount(), ft.LinkCount(), len(ft.Leaves))
	}
	if ft.TierName(0) != "edge" || ft.TierName(8) != "agg" || ft.TierName(16) != "core" {
		t.Fatalf("fat-tree tiers = %q, %q, %q", ft.TierName(0), ft.TierName(8), ft.TierName(16))
	}
}

func closConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = ClosTopology(2, 4, 4)
	return cfg
}

func TestClosDeliveryAllPairs(t *testing.T) {
	h := newHarness(t, closConfig())
	sent := 0
	for src := uint16(1); src <= 8; src++ {
		for dst := uint16(1); dst <= 8; dst++ {
			if src != dst {
				h.send(src, dst, 64)
				sent++
			}
		}
	}
	h.eng.MustRun()
	if len(h.delivered) != sent {
		t.Fatalf("delivered %d of %d packets", len(h.delivered), sent)
	}
	if len(h.drops) != 0 {
		t.Fatalf("unexpected drops: %v", h.drops)
	}
	if h.net.QueuedBytes() != 0 {
		t.Fatalf("buffer not drained: %d bytes", h.net.QueuedBytes())
	}
}

func TestFatTreeDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = ClosTopology(3, 4, 1)
	h := newHarness(t, cfg)
	// LIDs 1 and 6 land on edge switches in different pods (8 leaves,
	// round-robin), so the packet climbs edge → agg → core and back down.
	h.send(1, 6, 64)
	h.eng.MustRun()
	if len(h.delivered) != 1 || h.delivered[0] != 6 {
		t.Fatalf("delivered = %v, want [6]", h.delivered)
	}
}

// pathPicks records the uplink each cross-leaf flow takes at its source
// leaf switch, by the port's rendered role name ("sw0-sw4").
func pathPicks(n *Network) map[[2]uint16]string {
	picks := make(map[[2]uint16]string)
	for src := uint16(1); src <= 8; src++ {
		for dst := uint16(1); dst <= 8; dst++ {
			if src == dst || n.switchOf(src) == n.switchOf(dst) {
				continue
			}
			sw := n.switches[n.switchOf(src)]
			picks[[2]uint16{src, dst}] = sw.route(src, dst).role.name()
		}
	}
	return picks
}

// TestECMPDeterministicAcrossRebuilds pins the seeded-hash contract:
// rebuilding the network on a Reset engine with the same seed reproduces
// the exact path assignment, and a different seed reshuffles it.
func TestECMPDeterministicAcrossRebuilds(t *testing.T) {
	eng := sim.New(1)
	first := pathPicks(NewNetwork(eng, closConfig(), 56, 2*sim.Microsecond, Hooks{}))

	eng.Reset(1)
	same := pathPicks(NewNetwork(eng, closConfig(), 56, 2*sim.Microsecond, Hooks{}))
	for pair, want := range first {
		if same[pair] != want {
			t.Fatalf("pair %v rerouted across identical-seed rebuild: %q -> %q", pair, want, same[pair])
		}
	}

	eng.Reset(2)
	other := pathPicks(NewNetwork(eng, closConfig(), 56, 2*sim.Microsecond, Hooks{}))
	differs := false
	for pair, want := range first {
		if other[pair] != want {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("seed 2 produced the identical path assignment as seed 1 (48 pairs, 2 spines)")
	}
}

// TestECMPSpreadsAcrossSpines asserts ECMP actually uses the path
// diversity: the 48 cross-leaf flows must not all hash onto one spine.
func TestECMPSpreadsAcrossSpines(t *testing.T) {
	eng := sim.New(1)
	picks := pathPicks(NewNetwork(eng, closConfig(), 56, 2*sim.Microsecond, Hooks{}))
	used := make(map[string]bool)
	for _, port := range picks {
		used[port] = true
	}
	if len(used) < 3 {
		t.Fatalf("flows used only %d distinct uplinks: %v", len(used), used)
	}
}

func TestTierStatsAndLabels(t *testing.T) {
	cfg := closConfig()
	cfg.PFC = true
	cfg.XOffBytes = 1 << 10
	cfg.XOnBytes = 512
	h := newHarness(t, cfg)
	// Incast: every other host floods LID 1, converging on its leaf.
	for i := 0; i < 16; i++ {
		for src := uint16(2); src <= 8; src++ {
			h.send(src, 1, 512)
		}
	}
	h.eng.MustRun()

	stats := h.net.TierStats()
	if len(stats) != 2 || stats[0].Tier != "leaf" || stats[1].Tier != "spine" {
		t.Fatalf("tier stats = %+v, want leaf and spine rows", stats)
	}
	if stats[0].Switches != 4 || stats[1].Switches != 2 {
		t.Fatalf("tier switch counts = %d, %d, want 4, 2", stats[0].Switches, stats[1].Switches)
	}
	if stats[1].PauseFrames == 0 || stats[1].PeakBytes == 0 {
		t.Fatalf("incast left the spine tier idle: %+v", stats[1])
	}
	var drops, pauses uint64
	for _, sw := range h.net.switches {
		drops += sw.Drops
		pauses += sw.PauseFrames
	}
	if got := stats[0].Drops + stats[1].Drops; got != drops {
		t.Fatalf("tier drops sum %d, switches say %d", got, drops)
	}
	if got := stats[0].PauseFrames + stats[1].PauseFrames; got != pauses {
		t.Fatalf("tier pause sum %d, switches say %d", got, pauses)
	}

	snap := h.net.Telemetry().Snapshot(h.eng.Now())
	for _, labels := range []string{`{device="congestion",switch="sw0",tier="leaf"}`, `{device="congestion",switch="sw4",tier="spine"}`} {
		if _, ok := snap.Get(telemetry.SimSwitchDrops, labels); !ok {
			t.Fatalf("no %s%s in the network's snapshot", telemetry.SimSwitchDrops, labels)
		}
	}
}

// TestTierLabelFollowsRecycledSwitch pins the arena subtlety: a switch
// struct recycled from a chain trial into a Clos trial must swap its
// "tier" label even though its position (and name) did not change, and
// the recycled network's registry must not reuse the label set it
// rendered last trial.
func TestTierLabelFollowsRecycledSwitch(t *testing.T) {
	eng := sim.New(1)
	n := NewNetwork(eng, DefaultConfig(), 56, 2*sim.Microsecond, Hooks{})
	tier := func(want string) {
		t.Helper()
		labels := `{device="congestion",switch="sw0",tier="` + want + `"}`
		if _, ok := n.Telemetry().Snapshot(0).Get(telemetry.SimSwitchDrops, labels); !ok {
			t.Fatalf("no %s%s in the network's snapshot", telemetry.SimSwitchDrops, labels)
		}
	}
	tier("core")
	sw0 := n.switches[0]
	eng.Reset(1)
	n = NewNetwork(eng, closConfig(), 56, 2*sim.Microsecond, Hooks{})
	if n.switches[0] != sw0 {
		t.Fatal("switch arena did not recycle position 0")
	}
	tier("leaf")
}

// TestPreallocScalesWithLinks sanity-checks the satellite fix: event
// prealloc derives from the graph's link count, so a high-radix tree
// reserves more than a two-switch chain.
func TestPreallocScalesWithLinks(t *testing.T) {
	for _, tc := range []struct {
		topo  Topology
		floor int
	}{
		{ChainTopology(2, 4), 8 * (2 + 2*2)},
		{ClosTopology(3, 4, 1), 8 * (64 + 2*8)},
	} {
		eng := sim.New(1)
		cfg := DefaultConfig()
		cfg.Topology = tc.topo
		NewNetwork(eng, cfg, 56, 2*sim.Microsecond, Hooks{})
		if got := eng.EventCapacity(); got < tc.floor {
			t.Errorf("%s: event capacity %d, want >= %d", tc.topo.Kind, got, tc.floor)
		}
	}
}

// Route tables must route every pair on every builder output.
func TestRoutingCompleteOnAllBuilders(t *testing.T) {
	for _, topo := range []Topology{
		ChainTopology(1, 1), ChainTopology(5, 2),
		ClosTopology(2, 2, 1), ClosTopology(2, 8, 4), ClosTopology(3, 4, 2),
	} {
		topo := topo
		t.Run(fmt.Sprintf("%s-%dt-%dsw", topo.Kind, topo.Tiers, topo.SwitchCount()), func(t *testing.T) {
			eng := sim.New(1)
			cfg := DefaultConfig()
			cfg.Topology = topo
			n := NewNetwork(eng, cfg, 56, 2*sim.Microsecond, Hooks{})
			for si, sw := range n.switches {
				for ti := range n.switches {
					if ti == si {
						continue
					}
					hops := sw.hopPorts[sw.hopOff[ti]:sw.hopOff[ti+1]]
					if len(hops) == 0 {
						t.Fatalf("switch %d has no hops toward %d", si, ti)
					}
				}
			}
		})
	}
}

// TestPodTopologyShape checks the per-shard fat-tree cell: k/2 edges
// fully meshed to k/2 aggs, hosts on the edges, clamping like the other
// builders.
func TestPodTopologyShape(t *testing.T) {
	pod := PodTopology(8, 2)
	// 4 edges + 4 aggs, full bipartite mesh = 16 undirected = 32 directed.
	if pod.SwitchCount() != 8 || pod.LinkCount() != 32 || len(pod.Leaves) != 4 {
		t.Fatalf("pod(r8): %d switches, %d links, %d leaves, want 8, 32, 4",
			pod.SwitchCount(), pod.LinkCount(), len(pod.Leaves))
	}
	if pod.TierName(0) != "edge" || pod.TierName(4) != "agg" {
		t.Fatalf("pod tiers = %q, %q, want edge, agg", pod.TierName(0), pod.TierName(4))
	}
	if pod.Kind != "pod" || pod.Tiers != 2 || pod.Oversub != 2 {
		t.Fatalf("pod metadata = %q/%d/%g", pod.Kind, pod.Tiers, pod.Oversub)
	}
	// Clamps mirror ClosTopology: odd radix rounds up, oversub floors at 1.
	clamped := PodTopology(3, 0.5)
	if clamped.Radix != 4 || clamped.Oversub != 1 {
		t.Fatalf("clamped pod = radix %d oversub %g, want 4, 1", clamped.Radix, clamped.Oversub)
	}
}

// TestPodDeliveryAllPairs runs the all-pairs exchange on a pod cell:
// every cross-edge flow must climb to an agg and come back down.
func TestPodDeliveryAllPairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = PodTopology(8, 2)
	h := newHarness(t, cfg)
	sent := 0
	for src := uint16(1); src <= 8; src++ {
		for dst := uint16(1); dst <= 8; dst++ {
			if src != dst {
				h.send(src, dst, 64)
				sent++
			}
		}
	}
	h.eng.MustRun()
	if len(h.delivered) != sent {
		t.Fatalf("delivered %d of %d packets", len(h.delivered), sent)
	}
	if h.net.QueuedBytes() != 0 {
		t.Fatalf("buffer not drained: %d bytes", h.net.QueuedBytes())
	}
}

// TestTopologyAdjacencyPinned checks the builders against the
// append-based builders they replaced, kept below as the reference:
// adjacency order fixes port creation order and ECMP hop order, so a
// reordered row would move event tie-breaks and every golden with them.
func TestTopologyAdjacencyPinned(t *testing.T) {
	cases := []struct {
		name      string
		got, want Topology
	}{
		{"clos-2t-r4", ClosTopology(2, 4, 4), refClos(2, 4, 4)},
		{"clos-2t-r8", ClosTopology(2, 8, 1), refClos(2, 8, 1)},
		{"clos-3t-r4", ClosTopology(3, 4, 2), refClos(3, 4, 2)},
		{"clos-3t-r16", ClosTopology(3, 16, 4), refClos(3, 16, 4)},
		{"pod-r16", PodTopology(16, 4), refPod(16, 4)},
	}
	for sw := 1; sw <= 4; sw++ {
		cases = append(cases, struct {
			name      string
			got, want Topology
		}{fmt.Sprintf("chain-%d", sw), ChainTopology(sw, 4), refChain(sw, 4)})
	}
	for _, c := range cases {
		// slices.Equal, not reflect.DeepEqual: a switch without links has
		// an empty row where the reference left it nil.
		if !slices.EqualFunc(c.got.Adj, c.want.Adj, slices.Equal[[]Link]) {
			t.Errorf("%s: adjacency differs from the reference builder", c.name)
		}
		if !slices.Equal(c.got.TierOf, c.want.TierOf) || !slices.Equal(c.got.Leaves, c.want.Leaves) {
			t.Errorf("%s: tiers %v leaves %v, reference %v %v", c.name, c.got.TierOf, c.got.Leaves, c.want.TierOf, c.want.Leaves)
		}
		if g, w := c.got.LinkCount(), c.want.LinkCount(); g != w {
			t.Errorf("%s: %d links, reference %d", c.name, g, w)
		}
		if c.got.Summary() != c.want.Summary() || !slices.Equal(c.got.TierNames, c.want.TierNames) {
			t.Errorf("%s: %s %v, reference %s %v", c.name, c.got.Summary(), c.got.TierNames, c.want.Summary(), c.want.TierNames)
		}
	}
}

// refChain, refClos and refPod are the topology builders as they were
// before adjRows: every Adj row grown by append from nil.
func refChain(switches int, uplinkFactor float64) Topology {
	t := Topology{Kind: "chain", Tiers: 1, Oversub: uplinkFactor, TierNames: []string{"core"},
		TierOf: make([]int, switches), Adj: make([][]Link, switches), Leaves: make([]int, switches)}
	for i := 0; i < switches; i++ {
		t.Leaves[i] = i
		if i > 0 {
			t.Adj[i] = append(t.Adj[i], Link{To: i - 1, SpeedDiv: uplinkFactor, PropFactor: 1})
		}
		if i < switches-1 {
			t.Adj[i] = append(t.Adj[i], Link{To: i + 1, SpeedDiv: uplinkFactor, PropFactor: 1})
		}
	}
	return t
}

func refClos(tiers, radix int, oversub float64) Topology {
	link := func(to int) Link { return Link{To: to, SpeedDiv: oversub, PropFactor: 1} }
	if tiers == 2 {
		leaves, spines := radix, radix/2
		t := Topology{Kind: "clos", Tiers: 2, Radix: radix, Oversub: oversub, TierNames: []string{"leaf", "spine"},
			TierOf: make([]int, leaves+spines), Adj: make([][]Link, leaves+spines), Leaves: make([]int, leaves)}
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
	k, half := radix, radix/2
	edges, aggs, cores := k*half, k*half, half*half
	t := Topology{Kind: "clos", Tiers: 3, Radix: radix, Oversub: oversub, TierNames: []string{"edge", "agg", "core"},
		TierOf: make([]int, edges+aggs+cores), Adj: make([][]Link, edges+aggs+cores), Leaves: make([]int, edges)}
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

func refPod(radix int, oversub float64) Topology {
	half := radix / 2
	t := Topology{Kind: "pod", Tiers: 2, Radix: radix, Oversub: oversub, TierNames: []string{"edge", "agg"},
		TierOf: make([]int, 2*half), Adj: make([][]Link, 2*half), Leaves: make([]int, half)}
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
