package sparkucx

import (
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/sim"
)

func TestWaveNoODPIsFast(t *testing.T) {
	r := RunWave(WaveConfig{System: cluster.KNL(), Seed: 1, QPs: 32, Fetches: 512, Size: 256})
	if r.Failed {
		t.Fatal("wave failed")
	}
	if r.Time > 10*sim.Millisecond {
		t.Errorf("pinned wave took %v", r.Time)
	}
	if r.Retransmits != 0 {
		t.Errorf("retransmits = %d", r.Retransmits)
	}
	if r.FloodDetected(1024) {
		t.Error("no flood without ODP")
	}
}

func TestWaveODPFloods(t *testing.T) {
	r := RunWave(WaveConfig{System: cluster.KNL(), Seed: 1, QPs: 64, Fetches: 512, Size: 256, ODP: true})
	if r.Failed {
		t.Fatal("wave failed")
	}
	if !r.FloodDetected(1024) {
		t.Errorf("expected flood, retransmits = %d", r.Retransmits)
	}
	if r.Time < 20*sim.Millisecond {
		t.Errorf("ODP wave took only %v", r.Time)
	}
}

func TestWaveBidirectional(t *testing.T) {
	// Both directions fetch: the packet count must far exceed a
	// one-directional wave's.
	r := RunWave(WaveConfig{System: cluster.ReedbushH(), Seed: 2, QPs: 8, Fetches: 256, Size: 128})
	if r.Packets < 2*2*256 {
		t.Errorf("packets = %d, want both directions' requests+responses", r.Packets)
	}
}

func TestWaveDeterminism(t *testing.T) {
	cfg := WaveConfig{System: cluster.KNL(), Seed: 7, QPs: 16, Fetches: 128, Size: 64, ODP: true}
	a, b := RunWave(cfg), RunWave(cfg)
	if a.Time != b.Time || a.Packets != b.Packets {
		t.Errorf("non-deterministic waves: %+v vs %+v", a, b)
	}
}

func TestWaveInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid wave config should panic")
		}
	}()
	RunWave(WaveConfig{System: cluster.KNL(), QPs: 0, Fetches: 1, Size: 1})
}

// TestWaveOnReusedEngineMatchesFresh runs a sequence of waves that
// differ in system, QP count and ODP on one engine, the way a Table-13
// scenario run does, and checks each against the same wave on a fresh
// engine: recycled devices, QPs, CQs and UCX workers must not carry
// anything over.
func TestWaveOnReusedEngineMatchesFresh(t *testing.T) {
	eng := sim.New(0)
	for i, cfg := range []WaveConfig{
		{System: cluster.KNL(), Seed: 7, QPs: 32, Fetches: 256, Size: 256, ODP: true},
		{System: cluster.ReedbushH(), Seed: 8, QPs: 8, Fetches: 128, Size: 512},
		{System: cluster.KNL(), Seed: 9, QPs: 48, Fetches: 256, Size: 256, ODP: true},
		{System: cluster.ABCI(), Seed: 10, QPs: 16, Fetches: 256, Size: 256, ODP: true},
	} {
		want := RunWave(cfg)
		cfg.Eng = eng
		if got := RunWave(cfg); got != want {
			t.Errorf("wave %d on the reused engine = %+v, on a fresh one %+v", i, got, want)
		}
	}
}
