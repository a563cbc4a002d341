package telemetry

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// box is a test instance: one counter, one gauge and its own labels.
type box struct {
	n   uint64
	g   float64
	own []Label
}

func (b *box) AppendLabels(dst []Label) []Label { return append(dst, b.own...) }

// counter is a one-metric table reading a box's counter, every instance
// carrying label.
func counter(name string, label Label) *Table[box] {
	return &Table[box]{{Name: name, Help: "h", Label: label, Read: func(b *box) float64 { return float64(b.n) }}}
}

// gauge is a one-metric table reading a box's gauge.
func gauge(name string) *Table[box] {
	return &Table[box]{{Name: name, Help: "h", Kind: KindGauge, Read: func(b *box) float64 { return b.g }}}
}

func TestLabelsRenderSortedAndMerged(t *testing.T) {
	r := NewRegistry(Label{"zone", "a"})
	Register(r, counter("x", Label{"zone", "b"}), &box{own: []Label{{"qpn", "3"}, {"device", "node0"}}})
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
	r := NewRegistry(Label{})
	v := &box{}
	Register(r, counter("dup", Label{}), v)
	Register(r, counter("dup", Label{}), v)
	mustPanic("duplicate", func() { r.Snapshot(0) })
	mustPanic("nil instance", func() { Register(r, counter("niladic", Label{}), nil) })
	mustPanic("nil rows", func() { RegisterRows(r, counter("f", Label{}), nil) })
	// Same name under different labels is fine.
	r.Reset(Label{})
	Register(r, counter("dup", Label{}), v)
	Register(r, counter("dup", Label{"qpn", "1"}), v)
	r.Snapshot(0)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestSnapshotReadsLiveStorage(t *testing.T) {
	r := NewRegistry(Label{"device", "d"})
	b := &box{g: 7}
	Register(r, counter("hits", Label{}), b)
	Register(r, gauge("depth"), b)

	s0 := r.Snapshot(0)
	b.n, b.g = 41, 3
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
	ra := NewRegistry(Label{"device", "b"})
	rb := NewRegistry(Label{"device", "a"})
	Register(ra, counter("m", Label{}), &box{n: 1})
	Register(rb, counter("m", Label{}), &box{n: 2})
	Register(rb, counter("aaa", Label{}), &box{n: 4})
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
	r := NewRegistry(Label{})
	b := &box{n: 10, g: 100}
	Register(r, counter("c", Label{}), b)
	Register(r, gauge("g"), b)
	prev := r.Snapshot(0)
	b.n, b.g = 25, 60
	// A metric born after prev: counts from zero.
	Register(r, counter("born", Label{}), &box{n: 5})
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
	r := NewRegistry(Label{})
	ops := &box{}
	Register(r, counter("ops", Label{}), ops)
	sampler := NewSampler(eng, hubOf(eng, r), 10*sim.Millisecond)
	eng.Go("driver", func(p *sim.Proc) {
		sampler.Start()
		for i := 0; i < 5; i++ {
			ops.n++
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
	r := NewRegistry(Label{})
	Register(r, counter("v", Label{}), &box{})
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

// TestRenderCacheChecksKeyPresence renders {x=""} right after {y=""}:
// a missing key must not read as a rendered empty value.
func TestRenderCacheChecksKeyPresence(t *testing.T) {
	r := NewRegistry(Label{"device", "d"})
	v := &box{}
	Register(r, counter("m", Label{"y", ""}), v)
	Register(r, counter("m", Label{"x", ""}), v)
	s := r.Snapshot(0)
	if _, ok := s.Get("m", `{device="d",x=""}`); !ok {
		t.Errorf("{x=\"\"} rendered as the earlier {y=\"\"}: %v", s.Samples)
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

func (t *rowTable) Row(slot int) (string, any, bool) {
	if t.vals[slot] == 0 {
		return "", nil, false
	}
	if t.labels[slot] == "" {
		t.labels[slot] = t.reg.RowLabels("qpn", uint64(slot))
	}
	return t.labels[slot], &t.vals[slot], true
}

func newRowTable(reg *Registry, vals ...uint64) *rowTable {
	return &rowTable{reg: reg, vals: vals, labels: make([]string, len(vals))}
}

// rowCounters is a table over rowTable rows: metric f reads the row's
// value times f+1.
func rowCounters(names ...string) *Table[uint64] {
	t := Table[uint64]{}
	for f, name := range names {
		t = append(t, Metric[uint64]{Name: name, Help: "per row", Read: func(v *uint64) float64 { return float64(*v * uint64(f+1)) }})
	}
	return &t
}

func TestFamilyMatchesPerRowCounters(t *testing.T) {
	fam := NewRegistry(Label{"device", "d"})
	rows := newRowTable(fam, 5, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 9)
	RegisterRows(fam, rowCounters("m", "n"), rows)
	solo := &box{n: 1}
	Register(fam, counter("m", Label{}), solo)

	// The same samples, registered one row at a time.
	perRow := &Table[box]{
		{Name: "m", Help: "per row", Read: func(b *box) float64 { return float64(b.n) }},
		{Name: "n", Help: "per row", Read: func(b *box) float64 { return float64(2 * b.n) }},
	}
	each := NewRegistry(Label{"device", "d"})
	Register(each, counter("m", Label{}), solo)
	for slot, v := range rows.vals {
		if v != 0 {
			Register(each, perRow, &box{n: v, own: []Label{{"qpn", strconv.Itoa(slot)}}})
		}
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
	ra := NewRegistry(Label{"device", "a"})
	rb := NewRegistry(Label{"device", "b"})
	Register(ra, counter("m", Label{}), &box{n: 3})
	RegisterRows(ra, rowCounters("m"), newRowTable(ra, 5, 0, 7))
	Register(rb, counter("m", Label{"port", "1"}), &box{n: 11})
	Register(rb, gauge("g"), &box{g: 2.5})
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
	for _, common := range []Label{{}, {"device", "d"}, {"a", "1"}, {"z", "2"}, {"qpn", "old"}} {
		r := NewRegistry(common)
		for _, v := range []uint64{0, 7, 12345} {
			want := r.renderSet([]Label{{"qpn", strconv.FormatUint(v, 10)}}, Label{})
			if got := r.RowLabels("qpn", v); got != want {
				t.Errorf("common %v, qpn %d: RowLabels = %s, render = %s", common, v, got, want)
			}
		}
	}
}

func TestDuplicateRegistrationsPanic(t *testing.T) {
	mustPanic := func(name, key string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "duplicate") || !strings.Contains(msg, key) {
				t.Errorf("%s: panic %q does not name the duplicate %s", name, msg, key)
			}
		}()
		f()
	}
	r := NewRegistry(Label{"device", "d"})
	rows := newRowTable(r, 1)
	RegisterRows(r, rowCounters("m"), rows)
	mustPanic("family registered twice", "m", func() { RegisterRows(r, rowCounters("n", "m"), rows) })

	// One registry's scalars collide at its snapshot.
	v := &box{}
	Register(r, counter("x", Label{"port", "1"}), v)
	Register(r, counter("x", Label{"port", "1"}), v)
	mustPanic("same key in one registry", `x{device="d",port="1"}`, func() { r.Snapshot(0) })

	// Two registries sharing a device label collide only in the hub.
	a, b := NewRegistry(Label{"device", "d"}), NewRegistry(Label{"device", "d"})
	Register(a, counter("x", Label{}), v)
	Register(b, counter("x", Label{}), v)
	mustPanic("same key in two registries", `x{device="d"}`, func() { hubOf(sim.New(1), a, b).Snapshot(0) })
}

// TestAllocBudgetFamilySnapshot pins the snapshot side of families: once
// the row labels are interned, a snapshot of 1000 rows allocates only its
// sample slice, and one into a kept buffer (SnapshotInto) nothing.
func TestAllocBudgetFamilySnapshot(t *testing.T) {
	r := NewRegistry(Label{"device", "d"})
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	rows := newRowTable(r, vals...)
	names := make([]string, 8)
	for f := range names {
		names[f] = "m" + strconv.Itoa(f)
	}
	RegisterRows(r, rowCounters(names...), rows)
	hub := hubOf(sim.New(1), r)
	hub.Snapshot(0)
	if avg := testing.AllocsPerRun(20, func() { hub.Snapshot(0) }); avg > 1 {
		t.Errorf("8000-row snapshot allocates %.0f/op, want 1 (the sample slice)", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { r.RowLabels("qpn", 999) }); avg != 0 {
		t.Errorf("RowLabels of an interned label set allocates %.0f/op", avg)
	}
	// A snapshot into a kept buffer reads the same samples into it and
	// allocates nothing.
	buf := hub.SnapshotInto(0, nil).Samples
	if avg := testing.AllocsPerRun(20, func() { buf = hub.SnapshotInto(0, buf).Samples }); avg != 0 {
		t.Errorf("8000-row snapshot into a kept buffer allocates %.0f/op, want 0", avg)
	}
	if want := hub.Snapshot(0).Samples; !slices.Equal(buf, want) || &buf[0] == &want[0] {
		t.Errorf("SnapshotInto read %d samples, Snapshot %d; want equal samples in the kept buffer", len(buf), len(want))
	}
}

// TestRegistrationBudgetSnapshot pins what registering and reading
// scalars costs. A Reset registry registers with no allocation and
// renders nothing until a snapshot reads it; once a snapshot rendered
// its labels, the next snapshot of the unchanged hub allocates only its
// sample slice.
func TestRegistrationBudgetSnapshot(t *testing.T) {
	r := NewRegistry(Label{})
	port := &box{own: []Label{{"lid", "7"}}}
	status := &Table[box]{}
	for _, s := range []string{"ok", "err", "flush"} {
		*status = append(*status, Metric[box]{Name: "completions", Help: "h", Label: Label{"status", s},
			Read: func(b *box) float64 { return float64(b.n) }})
	}
	dev, x, portX := &box{}, counter("x", Label{}), counter("port_x", Label{"port", "1"})
	build := func() {
		r.Reset(Label{"device", "d"})
		Register(r, x, dev)
		Register(r, status, dev)
		Register(r, portX, port)
	}
	build()
	if avg := testing.AllocsPerRun(20, build); avg != 0 {
		t.Errorf("registering on a Reset registry allocates %.1f/op, want 0", avg)
	}
	if len(r.labels) != 0 || r.commonStr != "" {
		t.Errorf("registration rendered %d label sets", len(r.labels))
	}
	hub := hubOf(sim.New(1), r)
	hub.Snapshot(0)
	if avg := testing.AllocsPerRun(20, func() { hub.Snapshot(0) }); avg > 1 {
		t.Errorf("second snapshot allocates %.0f/op, want 1 (the sample slice)", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { hub.Total("completions") }); avg != 0 {
		t.Errorf("Hub.Total allocates %.1f/op", avg)
	}
}

// TestArenaNewRegistryOn checks the hub arena and a recycled registry.
// After an engine Reset NewHubOn returns the same hub holding no
// registries. A Reset registry holds no tables, and its next snapshot
// renders its instances' labels afresh: a recycled device's port may
// have a new lid.
func TestArenaNewRegistryOn(t *testing.T) {
	eng := sim.New(1)
	r := NewRegistry(Label{"device", "a"})
	port := &box{own: []Label{{"lid", "1"}}}
	Register(r, counter("x", Label{}), port)
	hub := hubOf(eng, r)
	if _, ok := hub.Snapshot(0).Get("x", `{device="a",lid="1"}`); !ok {
		t.Fatal("first build: no x{device=\"a\",lid=\"1\"}")
	}

	eng.Reset(2)
	h := NewHubOn(eng)
	if h != hub {
		t.Fatal("NewHubOn after Reset did not recycle the hub")
	}
	if len(h.regs) != 0 || len(h.Snapshot(0).Samples) != 0 {
		t.Errorf("recycled hub holds %d registries", len(h.regs))
	}
	r.Reset(Label{"device", "b"})
	if r.Len() != 0 || len(r.entries) != 0 {
		t.Errorf("Reset registry kept %d scalars in %d tables", r.Len(), len(r.entries))
	}
	port.own[0].Value = "2"
	Register(r, counter("x", Label{}), port) // would repeat a key if x survived
	h.Add(r)
	s := h.Snapshot(0)
	if _, ok := s.Get("x", `{device="b",lid="2"}`); !ok || len(s.Samples) != 1 {
		t.Errorf("rebuilt registry reads %v, want only x{device=\"b\",lid=\"2\"}", s.Samples)
	}
}
