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
// indirection), and the registry holds *pointers* to those fields plus
// callback-backed gauges. Per-row counters (one per QP) are registered
// once per component as families over a Rows table and enumerated at
// snapshot time, so creating a row touches no registry. A Snapshot reads
// every registered metric at one virtual instant; snapshots subtract to
// deltas; a Sampler scrapes a Hub of registries periodically on the sim
// clock into a TimeSeries; export helpers render Prometheus text
// exposition and CSV. Because the struct
// field *is* the counter's storage, the pre-existing exported fields
// (rnic.RNIC.DammedDrops, odp.Engine.Faults, …) remain valid read-through
// accessors of the registry values.
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

// Labels attach dimensions to a metric, e.g. {"device": "node0",
// "qpn": "3"}. They render sorted by key, so map order never leaks into
// output. The registry renders labels at registration time, so callers
// may reuse (and mutate) one Labels map across registrations — rnic's
// per-status counters register through a single map this way.
type Labels map[string]string

// labelPair is one rendered label dimension.
type labelPair struct{ k, v string }

// sortPairs orders pairs by key with an insertion sort: label sets are a
// handful of entries, and unlike sort.Slice this allocates nothing.
func sortPairs(pairs []labelPair) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
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

// metric is one registered counter or gauge.
type metric struct {
	name    string
	help    string
	kind    Kind
	labels  string // canonical rendered form
	counter *uint64
	gauge   func() float64
}

// value reads the metric's current value.
func (m *metric) value() float64 {
	if m.kind == KindCounter {
		return float64(*m.counter)
	}
	return m.gauge()
}

// Rows is a table of rows that each carry the same counter fields — the
// QPs of one device. Families registered over it enumerate it at
// snapshot time instead of registering one metric per row.
type Rows interface {
	// Slots returns the number of slots a walk visits.
	Slots() int
	// Count returns how many slots Row reports.
	Count() int
	// Row returns slot's rendered labels and field's value, or ok false
	// for a slot the table does not report.
	Row(slot, field int) (labels string, v uint64, ok bool)
}

// family is one counter name reported for every row of a Rows table.
type family struct {
	name  string
	help  string
	rows  Rows
	field int
}

// Registry holds the metrics of one component (a device, the fabric).
// Registration happens at construction time; reads happen at snapshot
// time. The zero value is not usable; create with NewRegistry.
//
// A registry holds two kinds of entries. Scalar metrics (Counter,
// Gauge) are registered one by one, a few dozen per component; families
// (Family) name one counter for every row of a Rows table and emit a
// sample per row when snapshotted. Registration runs per simulated
// device per trial, so it stays off the allocator: entries are stored by
// value in tables recycled through NewRegistryOn, and label rendering
// reuses scratch buffers and caches the last rendered label set.
// Registration rejects a repeated scalar (name, labels) pair and a
// repeated family name; a snapshot rejects any key that still repeats,
// including across the registries of one Hub.
type Registry struct {
	common    []labelPair // sorted by key
	commonStr string      // rendered form of common alone
	metrics   []metric
	families  []family

	// Render cache and scratch. lastSpecific/lastRendered memoize the
	// most recent non-empty specific label set; pairScratch and
	// bufScratch are reused across renders.
	lastSpecific []labelPair
	lastRendered string
	haveLast     bool
	pairScratch  []labelPair
	bufScratch   []byte

	arenaNext *Registry
}

// NewRegistry creates a registry whose metrics all carry the common
// labels (typically {"device": name}).
func NewRegistry(common Labels) *Registry {
	r := &Registry{}
	if len(common) > 0 {
		r.common = make([]labelPair, 0, len(common))
		for k, v := range common {
			r.common = append(r.common, labelPair{k, v})
		}
		sortPairs(r.common)
		r.commonStr = intern(r.renderPairs(r.common))
	}
	return r
}

// registriesKey is the engine Aux key of the registry arenas, one
// sim.Arena per registry name: sweeps rebuild every device per trial
// under the same names, so each trial's NewRegistryOn calls get back
// last trial's registry with its metric table, label scratch and render
// cache intact. Same-name registries within one generation get distinct
// instances, handed out in construction order (which is deterministic).
const registriesKey = "telemetry.registries"

// NewRegistryOn is NewRegistry taken from the engine's arena for name:
// name must identify the component uniquely enough that its common
// labels are the same every trial (the device name serves). After an
// engine Reset, the registry registered under name last run is returned
// emptied of metrics but keeping its storage. metrics and families size
// a new registry's tables: pass the scalar metrics and families the
// component registers when it is built, so each table is allocated once
// at its size.
func NewRegistryOn(eng *sim.Engine, name string, common Labels, metrics, families int) *Registry {
	byName, _ := eng.Aux(registriesKey).(map[string]*sim.Arena[Registry])
	if byName == nil {
		byName = make(map[string]*sim.Arena[Registry])
		eng.SetAux(registriesKey, byName)
	}
	a := byName[name]
	if a == nil {
		a = &sim.Arena[Registry]{Link: func(r *Registry) **Registry { return &r.arenaNext }}
		byName[name] = a
	}
	if r := a.Take(eng); r != nil {
		r.metrics = r.metrics[:0]
		r.families = r.families[:0]
		return r
	}
	r := NewRegistry(common)
	r.metrics = make([]metric, 0, metrics)
	if families > 0 {
		r.families = make([]family, 0, families)
	}
	a.Add(r)
	return r
}

// renderPairs renders sorted pairs into the reusable byte scratch in the
// canonical `{k="v",…}` form; the result is valid until the next render.
func (r *Registry) renderPairs(pairs []labelPair) []byte {
	if len(pairs) == 0 {
		return nil
	}
	if r.bufScratch == nil {
		r.bufScratch = make([]byte, 0, 96)
	}
	buf := append(r.bufScratch[:0], '{')
	for i, p := range pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p.k...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, p.v)
	}
	buf = append(buf, '}')
	r.bufScratch = buf
	return buf
}

// render merges the common labels with specific (specific wins) into the
// canonical sorted `{k="v",…}` form, or "" when there are none.
func (r *Registry) render(specific Labels) string {
	if len(specific) == 0 {
		return r.commonStr
	}
	if r.haveLast && len(specific) == len(r.lastSpecific) {
		same := true
		for _, p := range r.lastSpecific {
			if v, ok := specific[p.k]; !ok || v != p.v {
				same = false
				break
			}
		}
		if same {
			return r.lastRendered
		}
	}
	if r.pairScratch == nil {
		r.pairScratch = make([]labelPair, 0, 8)
		r.lastSpecific = make([]labelPair, 0, 8)
	}
	pairs := r.pairScratch[:0]
	for _, p := range r.common {
		if _, overridden := specific[p.k]; !overridden {
			pairs = append(pairs, p)
		}
	}
	for k, v := range specific {
		pairs = append(pairs, labelPair{k, v})
	}
	sortPairs(pairs)
	r.pairScratch = pairs
	rendered := intern(r.renderPairs(pairs))
	r.lastSpecific = r.lastSpecific[:0]
	for k, v := range specific {
		r.lastSpecific = append(r.lastSpecific, labelPair{k, v})
	}
	r.lastRendered = rendered
	r.haveLast = true
	return rendered
}

func (r *Registry) add(m metric, specific Labels) {
	m.labels = r.render(specific)
	for i := range r.metrics {
		if r.metrics[i].name == m.name && r.metrics[i].labels == m.labels {
			panic(fmt.Sprintf("telemetry: duplicate metric %s%s", m.name, m.labels))
		}
	}
	r.metrics = append(r.metrics, m)
}

// Counter registers a pointer-backed counter: v is the live storage, so
// the owning component keeps incrementing its field directly and the
// registry observes it for free.
func (r *Registry) Counter(name, help string, labels Labels, v *uint64) {
	if v == nil {
		panic("telemetry: Counter requires non-nil storage")
	}
	r.add(metric{name: name, help: help, kind: KindCounter, counter: v}, labels)
}

// Gauge registers a callback-backed gauge, read at snapshot time. read
// must only touch simulation state (it runs on the event loop).
func (r *Registry) Gauge(name, help string, labels Labels, read func() float64) {
	if read == nil {
		panic("telemetry: Gauge requires a read callback")
	}
	r.add(metric{name: name, help: help, kind: KindGauge, gauge: read}, labels)
}

// Family registers name as a counter reported for every row of rows
// that carries field, labelled by the row's own rendered labels. The
// table is read at snapshot time, so rows added later appear in later
// snapshots with nothing registered per row.
func (r *Registry) Family(name, help string, rows Rows, field int) {
	if rows == nil {
		panic("telemetry: Family requires a row table")
	}
	for i := range r.families {
		if r.families[i].name == name {
			panic("telemetry: duplicate family " + name)
		}
	}
	r.families = append(r.families, family{name: name, help: help, rows: rows, field: field})
}

// RowLabels renders the common labels plus key="v" (v in decimal, key
// winning over a common label of the same name) in canonical form — the
// labels a Rows table reports for a row. The result is interned, so a
// label set seen before allocates nothing.
func (r *Registry) RowLabels(key string, v uint64) string {
	buf := append(r.bufScratch[:0], '{')
	placed := false
	for _, p := range r.common {
		if !placed && key <= p.k {
			buf = appendUintPair(buf, key, v)
			placed = true
			if key == p.k {
				continue
			}
		}
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, p.k...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, p.v)
	}
	if !placed {
		buf = appendUintPair(buf, key, v)
	}
	buf = append(buf, '}')
	r.bufScratch = buf
	return intern(buf)
}

// appendUintPair appends `k="v"` with v in decimal, a comma first unless
// it opens the label set.
func appendUintPair(buf []byte, k string, v uint64) []byte {
	if len(buf) > 1 {
		buf = append(buf, ',')
	}
	buf = append(buf, k...)
	buf = append(buf, '=', '"')
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '"')
}

// Len returns the number of scalar metrics registered (families and
// their rows are not counted).
func (r *Registry) Len() int { return len(r.metrics) }

// sampleCount returns how many samples a snapshot of the registry emits.
func (r *Registry) sampleCount() int {
	n := len(r.metrics)
	for i := range r.families {
		n += r.families[i].rows.Count()
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

// snapshotInto appends this registry's current values.
func (r *Registry) snapshotInto(out []Sample) []Sample {
	for i := range r.metrics {
		m := &r.metrics[i]
		out = append(out, Sample{Name: m.name, Labels: m.labels, Help: m.help, Kind: m.kind, Value: m.value()})
	}
	for i := range r.families {
		f := &r.families[i]
		for slot, n := 0, f.rows.Slots(); slot < n; slot++ {
			if labels, v, ok := f.rows.Row(slot, f.field); ok {
				out = append(out, Sample{Name: f.name, Labels: labels, Help: f.help, Kind: KindCounter, Value: float64(v)})
			}
		}
	}
	return out
}

// Snapshot reads the registry at virtual time at.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
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
func (h *Hub) Snapshot(at sim.Time) Snapshot {
	n := 0
	for _, r := range h.regs {
		n += r.sampleCount()
	}
	samples := make([]Sample, 0, n)
	for _, r := range h.regs {
		samples = r.snapshotInto(samples)
	}
	return finishSnapshot(at, samples)
}

// Total sums every metric with the given name across the hub's
// registries, the same value Snapshot(at).Total(name) returns, without
// materialising or sorting a snapshot. It visits samples in registration
// order rather than sorted order, so it suits names whose sum does not
// depend on order: integer counters (exact in float64 below 2^53) or a
// name with a single sample. It does not check for duplicate keys;
// Snapshot does.
func (h *Hub) Total(name string) float64 {
	var sum float64
	for _, r := range h.regs {
		for i := range r.metrics {
			if m := &r.metrics[i]; m.name == name {
				sum += m.value()
			}
		}
		for i := range r.families {
			f := &r.families[i]
			if f.name != name {
				continue
			}
			for slot, n := 0, f.rows.Slots(); slot < n; slot++ {
				if _, v, ok := f.rows.Row(slot, f.field); ok {
					sum += float64(v)
				}
			}
		}
	}
	return sum
}
