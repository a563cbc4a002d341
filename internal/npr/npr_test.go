package npr

import (
	"testing"

	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

func setup(t *testing.T, cfg Config) (*sim.Engine, *hostmem.AddressSpace, *Pool) {
	t.Helper()
	eng := sim.New(1)
	as := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
	return eng, as, New(as, cfg)
}

func TestMigrationAndStall(t *testing.T) {
	_, as, pl := setup(t, DefaultConfig())
	a := as.Alloc(4 * hostmem.PageSize)
	if pl.Translated(a, 4*hostmem.PageSize) {
		t.Fatal("cold range should not be translated")
	}
	stall := pl.EnsureRange(a, 4*hostmem.PageSize)
	if want := 4 * MigratePerPage; stall != want {
		t.Errorf("cold stall = %v, want %v", stall, want)
	}
	if !pl.Translated(a, 4*hostmem.PageSize) {
		t.Error("range should be translated after migration")
	}
	if pl.Migrations != 4 || pl.TranslationStalls != 1 {
		t.Errorf("migrations=%d stalls=%d", pl.Migrations, pl.TranslationStalls)
	}
	// Warm accesses are free: no stall, no counter movement.
	if got := pl.EnsureRange(a, 4*hostmem.PageSize); got != 0 {
		t.Errorf("warm stall = %v, want 0", got)
	}
	if pl.Migrations != 4 || pl.TranslationStalls != 1 {
		t.Errorf("warm access moved counters: migrations=%d stalls=%d", pl.Migrations, pl.TranslationStalls)
	}
}

// TestPoolBound is the subsystem's core invariant: residency never
// exceeds the configured bound, no matter the working set.
func TestPoolBound(t *testing.T) {
	cfg := Config{PoolBytes: 4 * hostmem.PageSize}
	_, as, pl := setup(t, cfg)
	a := as.Alloc(32 * hostmem.PageSize)
	for i := 0; i < 32; i++ {
		pl.EnsureRange(a+hostmem.Addr(i*hostmem.PageSize), hostmem.PageSize)
		if pl.ResidentBytes() > cfg.PoolBytes {
			t.Fatalf("resident %d exceeds bound %d after page %d", pl.ResidentBytes(), cfg.PoolBytes, i)
		}
	}
	if pl.ResidentBytes() != cfg.PoolBytes {
		t.Errorf("resident = %d, want full pool %d", pl.ResidentBytes(), cfg.PoolBytes)
	}
	if pl.Evictions != 28 {
		t.Errorf("evictions = %d, want 28", pl.Evictions)
	}
}

func TestLRUEviction(t *testing.T) {
	_, as, pl := setup(t, Config{PoolBytes: 2 * hostmem.PageSize})
	a := as.Alloc(3 * hostmem.PageSize)
	p0, p1, p2 := a, a+hostmem.PageSize, a+2*hostmem.PageSize
	pl.EnsureRange(p0, hostmem.PageSize)
	pl.EnsureRange(p1, hostmem.PageSize)
	pl.EnsureRange(p0, hostmem.PageSize) // refresh p0: p1 is now LRU
	stall := pl.EnsureRange(p2, hostmem.PageSize)
	if want := EvictPerPage + MigratePerPage; stall != want {
		t.Errorf("pressured stall = %v, want %v", stall, want)
	}
	if !pl.Translated(p0, hostmem.PageSize) || pl.Translated(p1, hostmem.PageSize) {
		t.Errorf("LRU order wrong: p0 resident=%v p1 resident=%v",
			pl.Translated(p0, hostmem.PageSize), pl.Translated(p1, hostmem.PageSize))
	}
}

// TestAcquirePinsFrames: referenced frames never evict — the property
// that keeps in-flight requests' translations valid so READ responses
// are never discarded.
func TestAcquirePinsFrames(t *testing.T) {
	_, as, pl := setup(t, Config{PoolBytes: 2 * hostmem.PageSize})
	a := as.Alloc(4 * hostmem.PageSize)
	pl.Acquire(a, 2*hostmem.PageSize) // both frames referenced
	mig := pl.Migrations
	// Pool is full of referenced frames: overflow pages stream through
	// without residency and without evicting the held frames.
	pl.EnsureRange(a+2*hostmem.PageSize, 2*hostmem.PageSize)
	if pl.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 while frames are referenced", pl.Evictions)
	}
	if pl.Migrations != mig+2 {
		t.Errorf("migrations = %d, want %d (streamed pages still pay migration)", pl.Migrations, mig+2)
	}
	if !pl.Translated(a, 2*hostmem.PageSize) {
		t.Error("acquired range must stay translated")
	}
	if pl.Translated(a+2*hostmem.PageSize, hostmem.PageSize) {
		t.Error("streamed page must not become resident")
	}
	if pl.ResidentBytes() > 2*hostmem.PageSize {
		t.Errorf("resident %d exceeds bound", pl.ResidentBytes())
	}
	// After Release the held frames become evictable again.
	pl.Release(a, 2*hostmem.PageSize)
	pl.EnsureRange(a+2*hostmem.PageSize, hostmem.PageSize)
	if pl.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 after release", pl.Evictions)
	}
}

func TestMetricsRegistered(t *testing.T) {
	_, as, pl := setup(t, DefaultConfig())
	reg := telemetry.NewRegistry(telemetry.Label{})
	pl.RegisterMetrics(reg)
	a := as.Alloc(hostmem.PageSize)
	pl.EnsureRange(a, hostmem.PageSize)
	snap := reg.Snapshot(0)
	want := map[string]float64{
		telemetry.NprMigrations:        1,
		telemetry.NprEvictions:         0,
		telemetry.NprTranslationStalls: 1,
		telemetry.NprPoolBytes:         hostmem.PageSize,
	}
	got := map[string]float64{}
	for _, s := range snap.Samples {
		got[s.Name] = s.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

// TestGenerationRecycling: a Reset engine hands back the same pool
// objects with clean state, like every other per-node structure.
func TestGenerationRecycling(t *testing.T) {
	eng := sim.New(1)
	as := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
	p1 := New(as, DefaultConfig())
	a := as.Alloc(hostmem.PageSize)
	p1.EnsureRange(a, hostmem.PageSize)

	eng.Reset(2)
	as2 := hostmem.NewAddressSpace(eng, hostmem.DefaultConfig())
	p2 := New(as2, DefaultConfig())
	if p2 != p1 {
		t.Fatal("pool not recycled across engine generations")
	}
	if p2.ResidentBytes() != 0 || p2.Migrations != 0 {
		t.Errorf("recycled pool not reset: resident=%d migrations=%d", p2.ResidentBytes(), p2.Migrations)
	}
	a2 := as2.Alloc(hostmem.PageSize)
	if p2.Translated(a2, hostmem.PageSize) {
		t.Error("recycled pool should start with an empty shadow table")
	}
}

func TestWithDefaults(t *testing.T) {
	if c := (Config{PoolBytes: 8 * hostmem.PageSize}).WithDefaults(); c.PoolBytes != 8*hostmem.PageSize {
		t.Errorf("WithDefaults kept no explicit pool bound: %+v", c)
	}
	if c := (Config{}).WithDefaults(); c != DefaultConfig() {
		t.Errorf("WithDefaults of the zero config = %+v, want %+v", c, DefaultConfig())
	}
}
