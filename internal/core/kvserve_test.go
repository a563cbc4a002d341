package core_test

import (
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
	"odpsim/internal/telemetry"
)

// TestKVServePodHubSnapshot builds one pod of the quick kv-serve
// scenario the way the workload does (its fat-tree pod cell, one
// server-side ODP server, a READ from every client) and snapshots the
// pod's telemetry hub. The workload reads its totals through Hub.Total,
// which does not check keys, so this snapshot is what still rejects a
// metric key repeated across the pod's fabric, switch and RNIC
// registries. Its totals must match Hub.Total's.
func TestKVServePodHubSnapshot(t *testing.T) {
	sc, err := scenario.Lookup("kv-serve")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.ApplyQuick()
	sys, err := sc.ResolvedSystem()
	if err != nil {
		t.Fatal(err)
	}
	podCfg := sc.Congestion.Config()
	radix := podCfg.Topology.Radix
	podCfg.Topology = congestion.PodTopology(radix, podCfg.Topology.Oversub)
	sys.Congestion = &podCfg
	hosts := sc.Nodes / radix
	cl := sys.Build(sc.SeedOrDefault(), hosts)

	params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sc.RNRDelay()}
	server := cl.Nodes[0]
	region := server.AS.Alloc(sc.Size * (hosts - 1))
	server.RegisterMR(region, sc.Size*(hosts-1), true)
	for c := 1; c < hosts; c++ {
		node := cl.Nodes[c]
		lbuf := node.AS.Alloc(sc.Size)
		node.RegisterMR(lbuf, sc.Size, false)
		cq := rnic.NewCQ(cl.Eng)
		qc := node.CreateQP(cq, cq)
		qs := server.CreateQP(rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng))
		rnic.ConnectPair(qc, qs, params, params)
		qc.PostSend(rnic.SendWR{
			ID: 1, Op: rnic.OpRead, LocalAddr: lbuf,
			RemoteAddr: region + hostmem.Addr(sc.Size*(c-1)), Len: sc.Size,
		})
	}
	cl.Eng.Run()

	hub := cl.Telemetry()
	snap := hub.Snapshot(cl.Eng.Now()) // panics on a duplicate key
	if got := snap.Total(telemetry.SimReqCompleted); got != float64(hosts-1) {
		t.Errorf("%s = %v, want %d", telemetry.SimReqCompleted, got, hosts-1)
	}
	for _, name := range []string{
		telemetry.TxPauseDuration, telemetry.SimSwitchEcnMarked, telemetry.SimSwitchDrops,
		telemetry.SimFabricPacketsDelivered, telemetry.SimReqCompleted,
	} {
		if got, want := hub.Total(name), snap.Total(name); got != want {
			t.Errorf("Hub.Total(%s) = %v, snapshot total %v", name, got, want)
		}
	}
}

// TestWorkCountsExactKVServe pins the work of the quick kv-serve run: the
// events its 16 pods' engines fire and the digests the source pods send
// to pod 0. They are pure functions of the code and the seed, equal at
// every worker count, so they gate work that moves no byte of the
// report. A changed count is explained like a changed golden line.
func TestWorkCountsExactKVServe(t *testing.T) {
	sc, err := scenario.Lookup("kv-serve")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.ApplyQuick()
	for _, shards := range []int{1, 3} {
		events, digests, err := core.KVServeWork(&sc, shards)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("shards %d: %d events, %d digests", shards, events, digests)
		if events != 455793 || digests != 60 {
			t.Errorf("shards %d: %d events and %d digests, want 455793 and 60", shards, events, digests)
		}
	}
}
