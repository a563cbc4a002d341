package core

import (
	"fmt"

	"odpsim/internal/scenario"
)

// IRNCell returns the configuration irn-compare runs for one cell of sc,
// for the external tests: they need the scenario registry, whose
// internal/scenario/paper imports this package.
func IRNCell(sc *scenario.Scenario, mem, tport, fabric string) (BenchConfig, error) {
	base, _, err := floodConfig(sc)
	if err != nil {
		return BenchConfig{}, err
	}
	for _, c := range irnCells(sc, base) {
		if c.cfg.System.MemMode == mem && c.tport == tport && c.fabric == fabric {
			return c.cfg, nil
		}
	}
	return BenchConfig{}, fmt.Errorf("%s has no cell %s/%s/%s", sc.Name, mem, tport, fabric)
}

// KVServeWork runs sc's kv-serve pods on shards workers and returns the
// events their engines fired and the digests the source pods sent.
func KVServeWork(sc *scenario.Scenario, shards int) (events, digests uint64, err error) {
	kv, err := newKVServe(sc)
	if err != nil {
		return 0, 0, err
	}
	kv.run(shards)
	for _, kp := range kv.pod {
		events += kp.events
	}
	digests, _, _ = kv.digests()
	return events, digests, nil
}
