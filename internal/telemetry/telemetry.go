// Package telemetry is the simulator's vendor-counter observability
// layer: the equivalent of the mlx5 hardware counters an operator reads
// with `rdma statistic` or from sysfs when packet capture is unavailable.
// The paper diagnosed its pitfalls from ibdump traces, but notes that in
// production that visibility rarely exists — counters are the practical
// interface to RDMA pathologies, which is why internal/core grows
// counter-only diagnosers on top of this package.
//
// The design is read-side: components keep counting into plain uint64
// fields exactly as before (a single increment on the hot path, no
// indirection). Each component type declares one package-level Table
// listing its metrics (name, help, kind, any constant label, and how to
// read the value off an instance) and registers it with one call per
// instance; per-row counters (one per QP) are tables registered over a
// Rows table and enumerated at snapshot time, so creating a row touches
// no registry. Registration builds no string: label sets are rendered
// the first time a snapshot reads them, so a cluster that is only
// totalled (Hub.Total) never renders one. A Snapshot reads every
// registered metric at one virtual instant; snapshots subtract to
// deltas; a Sampler scrapes a Hub of registries periodically on the sim
// clock into a TimeSeries; export helpers render Prometheus text
// exposition and CSV. Because the struct field *is* the counter's
// storage, the pre-existing exported fields (rnic.RNIC.DammedDrops,
// odp.Engine.Faults, …) remain valid read-through accessors of the
// registry values.
//
// Everything is deterministic: snapshots are sorted by (name, labels),
// values are read in registration order, and the only clock is sim.Time —
// two runs of the same seeded scenario produce byte-identical exports.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"odpsim/internal/sim"
)

// Kind distinguishes monotonically increasing counters from
// instantaneous gauges.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

// String implements fmt.Stringer with the Prometheus type names.
func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Label is one label dimension, rendered key="value". A metric's label
// set joins its registry's common label (typically device="…"), its
// instance's labels (a port's lid, a switch's name and tier) and its
// table's constant label (status="…", reason="loss"); it renders sorted
// by key, and a more specific label wins over a common one of the same
// key. Nothing is rendered at registration: a registry renders a label
// set the first time a snapshot reads it.
type Label struct{ Key, Value string }

// sortLabels orders labels by key with an insertion sort: label sets are
// a handful of entries, and unlike sort.Slice this allocates nothing.
func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// internLabels is a process-wide table of rendered label strings. Sweeps
// rebuild every registry per trial with the same device names, so after
// the first trial every render is a cache hit and allocates nothing. The
// mutex (not sync.Map) keeps lookups allocation-free; parallel sweep
// workers contend only for the duration of one map access.
var (
	internMu     sync.Mutex
	internLabels = make(map[string]string)
)

// intern returns the canonical string for rendered, allocating only the
// first time a label set is seen process-wide. The map lookup keyed by
// string(rendered) does not allocate (compiler optimization).
func intern(rendered []byte) string {
	internMu.Lock()
	s, ok := internLabels[string(rendered)]
	if !ok {
		s = string(rendered)
		internLabels[s] = s
	}
	internMu.Unlock()
	return s
}

// Metric is one row of a component type's counter table: the metric's
// name, help text and kind, a label every instance carries (the zero
// Label for none), and how to read the metric's value off one instance.
type Metric[T any] struct {
	Name  string
	Help  string
	Kind  Kind
	Label Label
	Read  func(*T) float64
}

// Table lists the metrics one component type exports, declared once at
// package level. Register binds it to an instance (scalar metrics);
// RegisterRows binds it to a Rows table (one sample per row, labelled by
// the row, so Label is ignored there).
type Table[T any] []Metric[T]

// table is a *Table[T] with its instance type erased, which is how a
// registry stores it: a pointer in an interface, so storing it
// allocates nothing.
type table interface {
	size() int
	def(i int) (name, help string, kind Kind, label Label)
	read(src any, i int) float64
}

func (t *Table[T]) size() int { return len(*t) }

func (t *Table[T]) def(i int) (string, string, Kind, Label) {
	m := &(*t)[i]
	return m.Name, m.Help, m.Kind, m.Label
}

func (t *Table[T]) read(src any, i int) float64 { return (*t)[i].Read(src.(*T)) }

// Labeler is an instance whose metrics carry labels of its own, such as
// a port's lid. The registry asks for them when it renders.
type Labeler interface {
	AppendLabels(dst []Label) []Label
}

// Rows is a table of rows that each carry the same counter fields — the
// QPs of one device. Tables registered over it with RegisterRows
// enumerate it at snapshot time instead of registering anything per
// row.
type Rows interface {
	// Slots returns the number of slots a walk visits.
	Slots() int
	// Count returns how many slots Row reports.
	Count() int
	// Row returns slot's rendered labels and the row a table's Read
	// takes (a *T for a Table[T]), or ok false for a slot the table
	// does not report.
	Row(slot int) (labels string, row any, ok bool)
}

// entry is one registered table, bound to an instance (src is the *T)
// or, when rows is set, to a Rows table (src is the Rows). first is the
// index of its scalars' rendered labels.
type entry struct {
	tab   table
	src   any
	first int32
	rows  bool
}

// Registry holds the metrics of one component (a device, the fabric).
// Registration happens at construction time; reads happen at snapshot
// time. Create one with NewRegistry, or embed one in its owner and
// Reset it each time the owner is rebuilt.
//
// Registration appends one entry per table and builds no string, so a
// simulated cluster pays for its counters' labels only when something
// snapshots it. A snapshot renders and interns the label sets of every
// scalar registered since the previous one and keeps them until Reset,
// so a Sampler's later snapshots render nothing; Hub.Total never
// renders. A snapshot rejects a (name, labels) key that repeats,
// including across the registries of one Hub; RegisterRows rejects a
// name another row table of the registry already reports.
type Registry struct {
	common    Label
	commonStr string // rendered form of common alone, once rendered
	entries   []entry
	// scalars counts the metrics Register added. labels holds the
	// rendered label set of every scalar, in registration order; the
	// scalars of entries[:rendered] have theirs.
	scalars  int
	labels   []string
	rendered int

	// Render scratch, reused across renders.
	own, pairs []Label
	buf        []byte
}

// NewRegistry creates a registry whose metrics all carry the common
// label (typically device="…"); the zero Label means none.
func NewRegistry(common Label) *Registry {
	r := &Registry{}
	r.Reset(common)
	return r
}

// Reset empties the registry for a rebuilt owner whose metrics carry
// common, keeping its storage. It also drops every rendered label set,
// since the owner's name and its instances' labels may have changed.
func (r *Registry) Reset(common Label) {
	r.common, r.commonStr = common, ""
	clear(r.entries)
	r.entries = r.entries[:0]
	r.labels = r.labels[:0]
	r.scalars, r.rendered = 0, 0
}

// add appends e, reserving room for a component's handful of tables on
// the first registration.
func (r *Registry) add(e entry) {
	if r.entries == nil {
		r.entries = make([]entry, 0, 8)
	}
	r.entries = append(r.entries, e)
}

// Register adds every metric of t to r, read off src at snapshot time.
// The metrics carry src's own labels when src is a Labeler.
func Register[T any](r *Registry, t *Table[T], src *T) {
	if src == nil {
		panic("telemetry: Register requires an instance")
	}
	r.add(entry{tab: t, src: src, first: int32(r.scalars)})
	r.scalars += len(*t)
}

// RegisterRows adds every metric of t as a family over rows: each
// snapshot reports it once per row rows reports, read off that row and
// labelled by it, so rows added later appear in later snapshots with
// nothing registered per row.
func RegisterRows[T any](r *Registry, t *Table[T], rows Rows) {
	if rows == nil {
		panic("telemetry: RegisterRows requires a row table")
	}
	for i := range r.entries {
		if e := &r.entries[i]; e.rows {
			for j := range e.tab.size() {
				name, _, _, _ := e.tab.def(j)
				for k := range *t {
					if (*t)[k].Name == name {
						panic("telemetry: duplicate family " + name)
					}
				}
			}
		}
	}
	r.add(entry{tab: t, src: rows, rows: true})
}

// render renders the label sets of the scalars registered since the last
// render.
func (r *Registry) render() {
	if r.rendered == len(r.entries) {
		return
	}
	if r.commonStr == "" && r.common.Key != "" {
		r.commonStr = r.renderSet(nil, Label{})
	}
	r.labels = slices.Grow(r.labels, r.Len()-len(r.labels))
	for ; r.rendered < len(r.entries); r.rendered++ {
		e := &r.entries[r.rendered]
		if e.rows {
			continue
		}
		var own []Label
		if l, ok := e.src.(Labeler); ok {
			own = l.AppendLabels(r.own[:0])
			r.own = own
		}
		for i := range e.tab.size() {
			_, _, _, label := e.tab.def(i)
			if len(own) == 0 && label.Key == "" {
				r.labels = append(r.labels, r.commonStr)
			} else {
				r.labels = append(r.labels, r.renderSet(own, label))
			}
		}
	}
}

// renderSet renders the common label, own and label (a later one
// winning on a repeated key) in the canonical sorted `{k="v",…}` form,
// interned, or "" when there are none.
func (r *Registry) renderSet(own []Label, label Label) string {
	pairs := append(r.pairs[:0], own...)
	if label.Key != "" {
		pairs = withLabel(pairs, label, true)
	}
	if r.common.Key != "" {
		pairs = withLabel(pairs, r.common, false)
	}
	sortLabels(pairs)
	r.pairs = pairs
	if len(pairs) == 0 {
		return ""
	}
	buf := append(r.buf[:0], '{')
	for i, p := range pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p.Key...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, p.Value)
	}
	buf = append(buf, '}')
	r.buf = buf
	return intern(buf)
}

// withLabel returns ls with l added, replacing a label of the same key
// when override is set and keeping that one otherwise.
func withLabel(ls []Label, l Label, override bool) []Label {
	for i := range ls {
		if ls[i].Key == l.Key {
			if override {
				ls[i] = l
			}
			return ls
		}
	}
	return append(ls, l)
}

// RowLabels renders the common label plus key="v" (v in decimal, key
// winning over a common label of the same name) in canonical form — the
// labels a Rows table reports for a row. The result is interned, so a
// label set seen before allocates nothing.
func (r *Registry) RowLabels(key string, v uint64) string {
	buf := append(r.buf[:0], '{')
	if c := r.common; c.Key != "" && c.Key < key {
		buf = append(buf, c.Key...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, c.Value)
		buf = append(buf, ',')
	}
	buf = append(buf, key...)
	buf = append(buf, '=', '"')
	buf = strconv.AppendUint(buf, v, 10)
	buf = append(buf, '"')
	if c := r.common; c.Key > key {
		buf = append(buf, ',')
		buf = append(buf, c.Key...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, c.Value)
	}
	buf = append(buf, '}')
	r.buf = buf
	return intern(buf)
}

// Len returns the number of scalar metrics registered (row tables and
// their rows are not counted).
func (r *Registry) Len() int { return r.scalars }

// sampleCount returns how many samples a snapshot of the registry emits.
func (r *Registry) sampleCount() int {
	n := r.scalars
	for i := range r.entries {
		if e := &r.entries[i]; e.rows {
			n += e.tab.size() * e.src.(Rows).Count()
		}
	}
	return n
}

// Sample is one metric's value at one instant.
type Sample struct {
	Name   string
	Labels string // canonical `{k="v",…}` form, "" when unlabelled
	Help   string
	Kind   Kind
	Value  float64
}

// Snapshot is a consistent reading of every metric at one virtual
// instant, sorted by (Name, Labels).
type Snapshot struct {
	At      sim.Time
	Samples []Sample
}

// snapshotInto appends this registry's current values. The registry
// must be rendered.
func (r *Registry) snapshotInto(out []Sample) []Sample {
	for i := range r.entries {
		e := &r.entries[i]
		for m := range e.tab.size() {
			name, help, kind, _ := e.tab.def(m)
			if !e.rows {
				out = append(out, Sample{Name: name, Labels: r.labels[int(e.first)+m], Help: help, Kind: kind, Value: e.tab.read(e.src, m)})
				continue
			}
			rows := e.src.(Rows)
			for slot, n := 0, rows.Slots(); slot < n; slot++ {
				if labels, row, ok := rows.Row(slot); ok {
					out = append(out, Sample{Name: name, Labels: labels, Help: help, Kind: kind, Value: e.tab.read(row, m)})
				}
			}
		}
	}
	return out
}

// Snapshot reads the registry at virtual time at.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	r.render()
	return finishSnapshot(at, r.snapshotInto(make([]Sample, 0, r.sampleCount())))
}

// compareSamples orders samples by (Name, Labels).
func compareSamples(a, b Sample) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Labels, b.Labels)
}

// finishSnapshot sorts samples by (Name, Labels) and panics on a key
// that appears twice. Family rows interleave with each other and with
// scalars (labels sort as strings, so qpn="10" precedes qpn="2"), so the
// order comes from the sort alone, never from the registration order.
func finishSnapshot(at sim.Time, samples []Sample) Snapshot {
	slices.SortFunc(samples, compareSamples)
	for i := 1; i < len(samples); i++ {
		if samples[i].Name == samples[i-1].Name && samples[i].Labels == samples[i-1].Labels {
			panic(fmt.Sprintf("telemetry: duplicate metric %s%s", samples[i].Name, samples[i].Labels))
		}
	}
	return Snapshot{At: at, Samples: samples}
}

// Get returns the value of the sample with the given name and rendered
// labels, and whether it exists.
func (s Snapshot) Get(name, labels string) (float64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool {
		if s.Samples[i].Name != name {
			return s.Samples[i].Name > name
		}
		return s.Samples[i].Labels >= labels
	})
	if i < len(s.Samples) && s.Samples[i].Name == name && s.Samples[i].Labels == labels {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Total sums every sample with the given name across all label sets —
// e.g. per-QP local_ack_timeout_err over the whole cluster.
func (s Snapshot) Total(name string) float64 {
	var sum float64
	for _, smp := range s.Samples {
		if smp.Name == name {
			sum += smp.Value
		}
	}
	return sum
}

// Delta returns cur - prev per metric: counters become differences,
// gauges keep their current value. Metrics absent from prev (e.g. QPs
// created mid-run) count from zero.
func Delta(prev, cur Snapshot) Snapshot {
	type key struct{ name, labels string }
	old := make(map[key]float64, len(prev.Samples))
	for _, s := range prev.Samples {
		old[key{s.Name, s.Labels}] = s.Value
	}
	out := Snapshot{At: cur.At, Samples: make([]Sample, len(cur.Samples))}
	copy(out.Samples, cur.Samples)
	for i := range out.Samples {
		if out.Samples[i].Kind == KindCounter {
			out.Samples[i].Value -= old[key{out.Samples[i].Name, out.Samples[i].Labels}]
		}
	}
	return out
}

// Hub aggregates the registries of a whole simulation (fabric + every
// device) so one scrape sees the cluster the way a monitoring agent sees
// a host's /sys/class/infiniband tree.
type Hub struct {
	regs      []*Registry
	arenaNext *Hub
}

// hubsKey is the engine Aux key of the hub arena.
const hubsKey = "telemetry.hubs"

// NewHubOn creates an empty hub taken from the engine's arena, keeping
// its registry list's backing array across trials.
func NewHubOn(eng *sim.Engine) *Hub {
	a := sim.ArenaOn(eng, hubsKey, func(h *Hub) **Hub { return &h.arenaNext })
	if h := a.Take(eng); h != nil {
		h.regs = h.regs[:0]
		return h
	}
	h := &Hub{}
	a.Add(h)
	return h
}

// Add attaches another registry.
func (h *Hub) Add(r *Registry) { h.regs = append(h.regs, r) }

// Snapshot reads every registry at virtual time at.
func (h *Hub) Snapshot(at sim.Time) Snapshot { return h.SnapshotInto(at, nil) }

// SnapshotInto is Snapshot reading into buf's storage, growing it only
// when the samples do not fit: the returned snapshot's Samples alias buf,
// so a holder that keeps buf between readings (a recycled trial record)
// reads a hub of the same size without allocating. buf's contents are
// overwritten.
func (h *Hub) SnapshotInto(at sim.Time, buf []Sample) Snapshot {
	n := 0
	for _, r := range h.regs {
		r.render()
		n += r.sampleCount()
	}
	samples := buf[:0]
	if cap(samples) < n {
		samples = make([]Sample, 0, n)
	}
	for _, r := range h.regs {
		samples = r.snapshotInto(samples)
	}
	return finishSnapshot(at, samples)
}

// Total sums every metric with the given name across the hub's
// registries, the same value Snapshot(at).Total(name) returns, without
// rendering labels or materialising and sorting a snapshot. It visits
// samples in registration order rather than sorted order, so it suits
// names whose sum does not depend on order: integer counters (exact in
// float64 below 2^53) or a name with a single sample. It does not check
// for duplicate keys; Snapshot does.
func (h *Hub) Total(name string) float64 {
	var sum float64
	for _, r := range h.regs {
		for i := range r.entries {
			e := &r.entries[i]
			for m := range e.tab.size() {
				if n, _, _, _ := e.tab.def(m); n != name {
					continue
				}
				if !e.rows {
					sum += e.tab.read(e.src, m)
					continue
				}
				rows := e.src.(Rows)
				for slot, n := 0, rows.Slots(); slot < n; slot++ {
					if _, row, ok := rows.Row(slot); ok {
						sum += e.tab.read(row, m)
					}
				}
			}
		}
	}
	return sum
}
