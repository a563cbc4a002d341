// Contract tests for the shard layer (internal/shard,
// DESIGN.md §12): sharded execution is a pure throughput knob. The same
// scenario must produce byte-identical output at every `-shards` value —
// including against the committed goldens, which were recorded through
// the ordinary sequential path — and the cross-shard handoff must stay
// on the warm zero-allocation contract the rest of the datapath obeys.
package odpsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/packet"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
	"odpsim/internal/shard"
	"odpsim/internal/sim"
)

// TestShardedByteIdentical runs kv-serve, the one scenario that fans
// out across lanes (its 16 pods), at shards 1, 2 and 4 and requires each
// run to match the committed golden byte for byte. The collective
// patterns run on one engine whatever the knob says; their goldens are
// checked with the rest of results/.
func TestShardedByteIdentical(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("results", "kv-serve.txt"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	for _, shards := range []int{1, 2, 4} {
		sc, err := scenario.Lookup("kv-serve")
		if err != nil {
			t.Fatal(err)
		}
		sc.Shards = shards
		var buf bytes.Buffer
		if err := scenario.Run(sc, &buf, scenario.Options{}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("kv-serve at shards=%d differs from results/kv-serve.txt — sharding changed the simulation", shards)
		}
	}
}

// shardedFabric is the fixture BenchmarkShardedIncast and
// TestAllocBudgetShardedSend share: P pod cells (a radix-4 PodTopology
// with 8 hosts each), each built on its lane's engine when its wave
// starts and joined through a shard.Group by digest links converging on
// pod 0 — the fabric-level skeleton of the kv-serve scenario, without
// the RNIC stack on top.
type shardedFabric struct {
	g       *shard.Group
	links   []*shard.Link // digest link into pod 0 (nil at index 0)
	ccfg    congestion.Config
	seed    int64    // the running trial's seed: pod p runs on seed+p
	events  []uint64 // engine events each pod fired in the last trial
	digests int
}

func newShardedFabric(pods, lanes int) *shardedFabric {
	sf := &shardedFabric{g: shard.NewGroup(lanes), events: make([]uint64, pods)}
	sf.ccfg = smallPFC(congestion.PodTopology(4, 4))
	ds := make([]*shard.Domain, pods)
	for p := 0; p < pods; p++ {
		ds[p] = sf.g.AddDomain(int64(p+1), func(d *shard.Domain) { sf.build(d, p) },
			func(d *shard.Domain) { sf.events[p] = d.Eng.EventsFired() })
	}
	sf.links = make([]*shard.Link, pods)
	for p := 1; p < pods; p++ {
		sf.links[p] = sf.g.Connect(ds[p], ds[0], 25, 2*sim.Microsecond)
	}
	ds[0].OnFlight(func(shard.Flight) { sf.digests++ })
	return sf
}

// build puts pod p's fabric on its lane engine, reseeded to the running
// trial's seed (the arenas recycle across the generation bump), and
// queues a 4096-packet cross-edge burst inside the pod with a digest
// flight to pod 0 every 256 deliveries.
func (sf *shardedFabric) build(d *shard.Domain, p int) {
	d.Eng.Reset(sf.seed + int64(p))
	f := fabric.New(d.Eng, fabric.DefaultConfig())
	link := sf.links[p]
	delivered := 0
	ports := make([]*fabric.Port, 8)
	for lid := uint16(1); lid <= 8; lid++ {
		ports[lid-1] = f.AttachPort(lid, "host", func(*packet.Packet) {
			delivered++
			if link != nil && delivered%256 == 0 {
				link.Send(shard.Flight{Len: 64, Arg: uint64(delivered)})
			}
		})
	}
	f.EnableCongestion(sf.ccfg)
	sendBurst(f.Pool(), ports)
}

// trial runs the group to completion, every pod rebuilt on seed+p.
func (sf *shardedFabric) trial(seed int64) {
	sf.seed, sf.digests = seed, 0
	sf.g.Run()
}

// shardedAllocCeiling bounds the warm per-trial allocation count of a
// two-pod sharded trial at its measured reading, 24 with and without
// -race: the per-pod port slices and delivery closures. The cross-shard
// handoff itself (rings, inbox, merge scratch) and the lane engine's
// hand-off from pod to pod contribute zero; that is the part this guard
// watches.
const shardedAllocCeiling = 24

func TestAllocBudgetShardedSend(t *testing.T) {
	sf, seed := newShardedFabric(2, 1), int64(0)
	avg := warmAllocs(func() { seed += 16; sf.trial(seed) })
	checkAllocCeiling(t, "sharded two-pod trial", avg, shardedAllocCeiling,
		"the cross-shard handoff path regressed off the warm-allocation contract")
	if sf.digests != 16 {
		t.Errorf("%d digest flights crossed the shard boundary, want 16 (one per 256 deliveries in pod 1)", sf.digests)
	}
}
