package telemetry

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

func TestLabelsRenderSortedAndMerged(t *testing.T) {
	r := NewRegistry(Labels{"device": "node0", "zone": "a"})
	var v uint64
	r.Counter("x", "h", Labels{"qpn": "3", "zone": "b"}, &v)
	s := r.Snapshot(0)
	want := `{device="node0",qpn="3",zone="b"}`
	if got := s.Samples[0].Labels; got != want {
		t.Errorf("labels = %s, want %s (sorted keys, specific wins)", got, want)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry(nil)
	var v uint64
	r.Counter("dup", "h", nil, &v)
	mustPanic("duplicate", func() { r.Counter("dup", "h", nil, &v) })
	mustPanic("nil counter", func() { r.Counter("niladic", "h", nil, nil) })
	mustPanic("nil gauge", func() { r.Gauge("g", "h", nil, nil) })
	// Same name under different labels is fine.
	r.Counter("dup", "h", Labels{"qpn": "1"}, &v)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestSnapshotReadsLiveStorage(t *testing.T) {
	r := NewRegistry(Labels{"device": "d"})
	var hits uint64
	depth := 7.0
	r.Counter("hits", "h", nil, &hits)
	r.Gauge("depth", "h", nil, func() float64 { return depth })

	s0 := r.Snapshot(0)
	hits = 41
	depth = 3
	s1 := r.Snapshot(10)

	if v, _ := s0.Get("hits", `{device="d"}`); v != 0 {
		t.Errorf("s0 hits = %v", v)
	}
	if v, ok := s1.Get("hits", `{device="d"}`); !ok || v != 41 {
		t.Errorf("s1 hits = %v %v", v, ok)
	}
	if v, _ := s1.Get("depth", `{device="d"}`); v != 3 {
		t.Errorf("s1 depth = %v", v)
	}
	if _, ok := s1.Get("absent", ""); ok {
		t.Error("Get(absent) = ok")
	}
	// s0 must be unaffected by later increments (values copied out).
	if v, _ := s0.Get("hits", `{device="d"}`); v != 0 {
		t.Error("snapshot aliased live storage")
	}
}

// hubOf builds a hub over regs the way components do: NewHubOn, then
// one Add per registry.
func hubOf(eng *sim.Engine, regs ...*Registry) *Hub {
	h := NewHubOn(eng)
	for _, r := range regs {
		h.Add(r)
	}
	return h
}

func TestSnapshotSortedAndTotal(t *testing.T) {
	ra := NewRegistry(Labels{"device": "b"})
	rb := NewRegistry(Labels{"device": "a"})
	var x, y, z uint64 = 1, 2, 4
	ra.Counter("m", "h", nil, &x)
	rb.Counter("m", "h", nil, &y)
	rb.Counter("aaa", "h", nil, &z)
	s := hubOf(sim.New(1), ra, rb).Snapshot(5)
	if s.At != 5 {
		t.Errorf("At = %v", s.At)
	}
	for i := 1; i < len(s.Samples); i++ {
		a, b := s.Samples[i-1], s.Samples[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Labels > b.Labels) {
			t.Fatalf("unsorted: %v before %v", a, b)
		}
	}
	if got := s.Total("m"); got != 3 {
		t.Errorf("Total(m) = %v, want 3", got)
	}
	if got := s.Total("absent"); got != 0 {
		t.Errorf("Total(absent) = %v", got)
	}
}

func TestDelta(t *testing.T) {
	r := NewRegistry(nil)
	var c uint64 = 10
	g := 100.0
	r.Counter("c", "h", nil, &c)
	r.Gauge("g", "h", nil, func() float64 { return g })
	prev := r.Snapshot(0)
	c, g = 25, 60
	// A metric born after prev: counts from zero.
	var born uint64 = 5
	r.Counter("born", "h", nil, &born)
	cur := r.Snapshot(9)

	d := Delta(prev, cur)
	if d.At != 9 {
		t.Errorf("At = %v", d.At)
	}
	if v, _ := d.Get("c", ""); v != 15 {
		t.Errorf("counter delta = %v, want 15", v)
	}
	if v, _ := d.Get("g", ""); v != 60 {
		t.Errorf("gauge in delta = %v, want current 60", v)
	}
	if v, _ := d.Get("born", ""); v != 5 {
		t.Errorf("new counter delta = %v, want 5", v)
	}
}

func TestKindString(t *testing.T) {
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" {
		t.Error("Kind.String mismatch")
	}
}

func TestSamplerOnSimClock(t *testing.T) {
	eng := sim.New(1)
	r := NewRegistry(nil)
	var ops uint64
	r.Counter("ops", "h", nil, &ops)
	sampler := NewSampler(eng, hubOf(eng, r), 10*sim.Millisecond)
	eng.Go("driver", func(p *sim.Proc) {
		sampler.Start()
		for i := 0; i < 5; i++ {
			ops++
			p.Sleep(10 * sim.Millisecond)
		}
		p.Sleep(5 * sim.Millisecond) // stop off the sampling grid
		sampler.Stop()
	})
	eng.MustRun()

	ts := sampler.Series()
	// t=0 (immediate), 10,20,30,40,50ms (recurring), 55ms (final).
	if ts.Len() != 7 {
		t.Fatalf("Len = %d, want 7 (times %v)", ts.Len(), ts.Times())
	}
	times := ts.Times()
	if times[0] != 0 || times[6] != 55*sim.Millisecond {
		t.Errorf("times = %v", times)
	}
	sums := ts.Sum("ops")
	// The timer armed at each grid instant precedes the driver's wake
	// there, so the t=10k ms sample sees exactly k increments.
	want := []float64{0, 1, 2, 3, 4, 5, 5}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("Sum(ops) = %v, want %v", sums, want)
		}
	}
	// Stop is idempotent and must not add samples.
	sampler.Stop()
	if ts.Len() != 7 {
		t.Error("Stop after Stop added a sample")
	}
}

func TestSamplerStopOnGridTakesNoDuplicate(t *testing.T) {
	eng := sim.New(1)
	r := NewRegistry(nil)
	var v uint64
	r.Counter("v", "h", nil, &v)
	sampler := NewSampler(eng, hubOf(eng, r), 10*sim.Millisecond)
	eng.Go("driver", func(p *sim.Proc) {
		sampler.Start()
		p.Sleep(20 * sim.Millisecond)
		sampler.Stop() // exactly on a sampling instant
	})
	eng.MustRun()
	times := sampler.Series().Times()
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Errorf("duplicate sample instant: %v", times)
		}
	}
}

func TestSamplerClampsInterval(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler(eng, NewHubOn(eng), 1) // 1 ns would run wild
	if s.interval != sim.Microsecond {
		t.Errorf("interval = %v, want clamped to 1µs", s.interval)
	}
}

// TestRenderCacheChecksKeyPresence registers {x=""} right after {y=""}:
// a missing key must not read as a cached empty value.
func TestRenderCacheChecksKeyPresence(t *testing.T) {
	r := NewRegistry(Labels{"device": "d"})
	var v uint64
	r.Counter("m", "h", Labels{"y": ""}, &v)
	r.Counter("m", "h", Labels{"x": ""}, &v)
	s := r.Snapshot(0)
	if _, ok := s.Get("m", `{device="d",x=""}`); !ok {
		t.Errorf("{x=\"\"} rendered from the cached {y=\"\"}: %v", s.Samples)
	}
}

// rowTable is a Rows table over plain counters; rows whose value is
// zero are not reported.
type rowTable struct {
	reg    *Registry
	vals   []uint64
	labels []string
}

func (t *rowTable) Slots() int { return len(t.vals) }

func (t *rowTable) Count() int {
	n := 0
	for _, v := range t.vals {
		if v != 0 {
			n++
		}
	}
	return n
}

func (t *rowTable) Row(slot, field int) (string, uint64, bool) {
	if t.vals[slot] == 0 {
		return "", 0, false
	}
	if t.labels[slot] == "" {
		t.labels[slot] = t.reg.RowLabels("qpn", uint64(slot))
	}
	return t.labels[slot], t.vals[slot] * uint64(field+1), true
}

func newRowTable(reg *Registry, vals ...uint64) *rowTable {
	return &rowTable{reg: reg, vals: vals, labels: make([]string, len(vals))}
}

func TestFamilyMatchesPerRowCounters(t *testing.T) {
	fam := NewRegistry(Labels{"device": "d"})
	rows := newRowTable(fam, 5, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 9)
	fam.Family("m", "per row", rows, 0)
	fam.Family("n", "per row, doubled", rows, 1)
	var solo uint64 = 1
	fam.Counter("m", "per row", nil, &solo)

	each := NewRegistry(Labels{"device": "d"})
	each.Counter("m", "per row", nil, &solo)
	vals := make([]uint64, 2*len(rows.vals))
	for slot, v := range rows.vals {
		if v == 0 {
			continue
		}
		l := Labels{"qpn": strconv.Itoa(slot)}
		vals[2*slot], vals[2*slot+1] = v, 2*v
		each.Counter("m", "per row", l, &vals[2*slot])
		each.Counter("n", "per row, doubled", l, &vals[2*slot+1])
	}

	var got, want bytes.Buffer
	if err := fam.Snapshot(3).WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := each.Snapshot(3).WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("family export:\n%s\nper-row export:\n%s", got.String(), want.String())
	}
	if fam.Len() != 1 {
		t.Errorf("Len = %d, want 1 (families are not scalar metrics)", fam.Len())
	}
}

// TestHubTotalMatchesSnapshot checks Hub.Total against a snapshot's
// Total over scalars, gauges and family rows spread across registries.
func TestHubTotalMatchesSnapshot(t *testing.T) {
	ra := NewRegistry(Labels{"device": "a"})
	rb := NewRegistry(Labels{"device": "b"})
	var x, y uint64 = 3, 11
	ra.Counter("m", "h", nil, &x)
	ra.Family("m", "h", newRowTable(ra, 5, 0, 7), 0)
	rb.Counter("m", "h", Labels{"port": "1"}, &y)
	rb.Gauge("g", "h", nil, func() float64 { return 2.5 })
	hub := hubOf(sim.New(1), ra, rb)
	snap := hub.Snapshot(0)
	for _, name := range []string{"m", "g", "absent"} {
		if got, want := hub.Total(name), snap.Total(name); got != want {
			t.Errorf("Hub.Total(%q) = %v, snapshot total %v", name, got, want)
		}
	}
	if got := hub.Total("m"); got != 26 {
		t.Errorf("Hub.Total(m) = %v, want 26", got)
	}
}

func TestRowLabelsMatchRender(t *testing.T) {
	for _, common := range []Labels{nil, {"device": "d"}, {"a": "1", "z": "2"}, {"qpn": "old", "device": "d"}} {
		r := NewRegistry(common)
		for _, v := range []uint64{0, 7, 12345} {
			want := r.render(Labels{"qpn": strconv.FormatUint(v, 10)})
			if got := r.RowLabels("qpn", v); got != want {
				t.Errorf("common %v, qpn %d: RowLabels = %s, render = %s", common, v, got, want)
			}
		}
	}
}

func TestDuplicateRegistrationsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg := recover(); msg == nil {
				t.Errorf("%s: no panic", name)
			} else if !strings.Contains(fmt.Sprint(msg), "duplicate") {
				t.Errorf("%s: panic %q does not name a duplicate", name, msg)
			}
		}()
		f()
	}
	r := NewRegistry(Labels{"device": "d"})
	rows := newRowTable(r, 1)
	r.Family("m", "h", rows, 0)
	mustPanic("family registered twice", func() { r.Family("m", "h", rows, 1) })

	// Two registries sharing a device label collide only in the hub.
	var v uint64
	a, b := NewRegistry(Labels{"device": "d"}), NewRegistry(Labels{"device": "d"})
	a.Counter("x", "h", nil, &v)
	b.Counter("x", "h", nil, &v)
	mustPanic("same key in two registries", func() { hubOf(sim.New(1), a, b).Snapshot(0) })
}

// TestAllocBudgetFamilySnapshot pins the snapshot side of families: once
// the row labels are interned, a snapshot of 1000 rows allocates only its
// sample slice.
func TestAllocBudgetFamilySnapshot(t *testing.T) {
	r := NewRegistry(Labels{"device": "d"})
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	rows := newRowTable(r, vals...)
	for f := 0; f < 8; f++ {
		r.Family("m"+strconv.Itoa(f), "h", rows, f)
	}
	hub := hubOf(sim.New(1), r)
	hub.Snapshot(0)
	if avg := testing.AllocsPerRun(20, func() { hub.Snapshot(0) }); avg > 1 {
		t.Errorf("8000-row snapshot allocates %.0f/op, want 1 (the sample slice)", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { r.RowLabels("qpn", 999) }); avg != 0 {
		t.Errorf("RowLabels of an interned label set allocates %.0f/op", avg)
	}
}

// TestArenaNewRegistryOn checks the registry and hub arenas. Same-name
// registries of one generation are distinct. After a Reset each name
// takes its own registries back in construction order, whatever order
// the names come in, emptied of metrics and families, and a recycled
// hub holds no registries.
func TestArenaNewRegistryOn(t *testing.T) {
	eng := sim.New(1)
	var v uint64
	take := func(name string) *Registry {
		r := NewRegistryOn(eng, name, Labels{"device": name}, 1, 1)
		r.Counter("x", "h", nil, &v)
		r.Family("f", "h", newRowTable(r, 1, 2), 0)
		if cap(r.metrics) != 1 || cap(r.families) != 1 {
			t.Fatalf("registry %q sized %d metrics and %d families, want the 1 and 1 asked for", name, cap(r.metrics), cap(r.families))
		}
		return r
	}
	a1, a2, b1 := take("a"), take("a"), take("b")
	if a1 == a2 {
		t.Fatal("two same-name registries of one generation are the same instance")
	}
	hub := hubOf(eng, a1, a2, b1)

	eng.Reset(2)
	for i, c := range []struct {
		name string
		want *Registry
	}{{"b", b1}, {"a", a1}, {"a", a2}} {
		name := c.name
		r := NewRegistryOn(eng, name, Labels{"device": name}, 1, 1)
		if r != c.want {
			t.Fatalf("registry %d (%q) after Reset is not the one its name took first", i, name)
		}
		if len(r.metrics) != 0 || len(r.families) != 0 {
			t.Errorf("recycled registry %q kept %d metrics and %d families", name, len(r.metrics), len(r.families))
		}
		r.Counter("x", "h", nil, &v) // would panic as a duplicate if x survived
	}
	if a3 := NewRegistryOn(eng, "a", Labels{"device": "a"}, 1, 1); a3 == a1 || a3 == a2 {
		t.Error("a third same-name registry reused one already taken this generation")
	}
	h := NewHubOn(eng)
	if h != hub {
		t.Fatal("NewHubOn after Reset did not recycle the hub")
	}
	if len(h.regs) != 0 || len(h.Snapshot(0).Samples) != 0 {
		t.Errorf("recycled hub holds %d registries", len(h.regs))
	}
}
