// Package sparkucx models the SparkUCX experiment of §VII-B: Spark
// examples whose join stages shuffle data through an RDMA plugin, issuing
// READ fan-outs across hundreds to thousands of QPs. Under ODP the
// simultaneous page faults trigger packet flood, stalling the job
// intermittently for seconds (Table 13 measures up to 6.46× slowdowns).
//
// Spark's compute phases are represented by calibrated base times (the
// paper's "Disable" column — we cannot simulate the JVM); the shuffle
// phases are *simulated* at packet level: each wave issues fetches over
// the per-example QP count into fresh pages, and the measured stall is
// whatever the flood dynamics produce. Because a full job runs hundreds
// of waves, the harness simulates a sample of waves and extrapolates
// (documented in DESIGN.md). A run plans every sampled wave of every
// row first and simulates each distinct one once (Measure).
package sparkucx

import (
	"fmt"
	"io"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
)

// Example identifies one of the Spark programs the paper runs.
type Example int

// The three examples of Table 13.
const (
	SparkTC Example = iota
	RecommendationExample
	RankingMetricsExample
)

// String implements fmt.Stringer.
func (e Example) String() string {
	switch e {
	case SparkTC:
		return "SparkTC"
	case RecommendationExample:
		return "mllib.RecommendationExample"
	case RankingMetricsExample:
		return "mllib.RankingMetricsExample"
	default:
		return fmt.Sprintf("Example(%d)", int(e))
	}
}

// SystemConfig is one row group of Table 13: a system, labelled with
// its worker count; QPs is the observed queue-pair count per example.
type SystemConfig struct {
	Label  string
	System cluster.System
	QPs    map[Example]int
}

// Table13Configs returns the four system configurations of Table 13 with
// the QP counts the paper reports.
func Table13Configs() []SystemConfig {
	return []SystemConfig{
		{Label: "KNL (2)", System: cluster.KNL(), QPs: map[Example]int{
			SparkTC: 411, RecommendationExample: 210, RankingMetricsExample: 389}},
		{Label: "Reedbush-H (2)", System: cluster.ReedbushH(), QPs: map[Example]int{
			SparkTC: 980, RecommendationExample: 980, RankingMetricsExample: 980}},
		{Label: "ABCI (2)", System: cluster.ABCI(), QPs: map[Example]int{
			SparkTC: 2191, RecommendationExample: 2191, RankingMetricsExample: 2191}},
		{Label: "ABCI (4)", System: cluster.ABCI(), QPs: map[Example]int{
			SparkTC: 2858, RecommendationExample: 1953, RankingMetricsExample: 2667}},
	}
}

// workload describes an example's shape: calibrated base compute (the
// Disable column, seconds) and the shuffle structure driving the
// simulation.
type workload struct {
	base map[string]float64 // per SystemConfig.Label
	// waves is the number of shuffle fetch waves across the whole job.
	waves int
	// fetches is the number of READs per wave (spread over the QPs).
	fetches int
	// size is the fetch message size in bytes.
	size int
}

func exampleWorkload(e Example) workload {
	switch e {
	case SparkTC:
		return workload{
			base:  map[string]float64{"KNL (2)": 303, "Reedbush-H (2)": 39.7, "ABCI (2)": 83.9, "ABCI (4)": 41.7},
			waves: 120, fetches: 2048, size: 256,
		}
	case RecommendationExample:
		return workload{
			base:  map[string]float64{"KNL (2)": 100, "Reedbush-H (2)": 21.9, "ABCI (2)": 29.0, "ABCI (4)": 24.3},
			waves: 40, fetches: 1024, size: 512,
		}
	default: // RankingMetricsExample
		return workload{
			base:  map[string]float64{"KNL (2)": 517, "Reedbush-H (2)": 46.6, "ABCI (2)": 107, "ABCI (4)": 83.2},
			waves: 80, fetches: 2048, size: 256,
		}
	}
}

// qpCap bounds the QPs per direction a wave simulates, for
// tractability: the flood severity saturates well below the paper's
// counts, which the QPs column still prints.
const qpCap = 256

// RowSpec names one Table-13 row: an example on a system row.
type RowSpec struct {
	Example Example
	Sys     SystemConfig
}

// Row is one Table-13 cell pair.
type Row struct {
	Example Example
	Label   string
	QPs     int
	Disable stats.Summary // seconds
	Enable  stats.Summary // seconds
	Ratio   float64
	Omitted int // failed (IBV_WC_RETRY_EXC_ERR) samples, as in the paper
	// DisableFloods and EnableFloods count the trials whose sampled
	// waves showed packet flood (retransmits beyond the wave's fetches).
	DisableFloods, EnableFloods int
}

// Measure measures rows with the paper's methodology: sc.Trials trials
// each with ODP disabled and enabled, failed Enable samples omitted.
// A trial's job time is the row's calibrated base plus its sampled
// waves' mean stall times the job's wave count. The scenario supplies
// the seed, the sampled waves per trial (sc.Waves, 0 = 2) and the fault
// knobs.
//
// A wave depends only on its WaveConfig, and rows repeat waves (equal
// systems, equal fetch shapes, QP counts above qpCap). So Measure plans
// every cell first and simulates each distinct wave once, in one
// parallel.Run with each wave on its worker's engine from engs (a nil
// cache builds every wave on a fresh engine). It then assembles the
// rows from the index-ordered results, byte-identical to simulating
// every cell.
func Measure(sc *scenario.Scenario, rows []RowSpec, engs parallel.Engines) []Row {
	p := newPlan(sc, rows)
	results := make([]WaveResult, len(p.waves))
	parallel.Run(len(p.waves), func(w, i int) {
		cfg := p.waves[i]
		cfg.Eng = engs.Get(w)
		results[i] = RunWave(cfg)
	})
	return p.assemble(results)
}

// plan is one Measure call laid out before any simulation. cells
// holds, for every (row, trial, Disable then Enable, sampled wave) in
// that order, the index of its wave in waves, the distinct WaveConfigs
// (Eng unset) in first-use order.
type plan struct {
	rows   []RowSpec
	trials int
	sample []int // sampled waves per row
	waves  []WaveConfig
	cells  []int
}

func newPlan(sc *scenario.Scenario, rows []RowSpec) *plan {
	sample := sc.Waves
	if sample <= 0 {
		sample = 2
	}
	seed := sc.SeedOrDefault()
	p := &plan{rows: rows, trials: sc.Trials, sample: make([]int, len(rows))}
	index := map[WaveConfig]int{}
	// ApplyFaults resolves the scenario's congestion afresh on every
	// call; every row keeps the first row's, so equal systems share one
	// pointer and key equal waves.
	var cong *congestion.Config
	for r, row := range rows {
		w := exampleWorkload(row.Example)
		if _, ok := w.base[row.Sys.Label]; !ok {
			panic(fmt.Sprintf("sparkucx: no baseline for %q", row.Sys.Label))
		}
		sys := sc.ApplyFaults(row.Sys.System)
		if cong == nil {
			cong = sys.Congestion
		} else {
			sys.Congestion = cong
		}
		p.sample[r] = min(sample, w.waves)
		qps := min(row.Sys.QPs[row.Example], qpCap)
		for t := 0; t < sc.Trials; t++ {
			for _, odp := range []bool{false, true} {
				for i := 0; i < p.sample[r]; i++ {
					cfg := WaveConfig{
						System:  sys,
						Seed:    seed + int64(t)*3547 + int64(i)*8377,
						QPs:     qps,
						Fetches: w.fetches / 2, // per direction
						Size:    w.size,
						ODP:     odp,
					}
					k, ok := index[cfg]
					if !ok {
						k = len(p.waves)
						index[cfg] = k
						p.waves = append(p.waves, cfg)
					}
					p.cells = append(p.cells, k)
				}
			}
		}
	}
	return p
}

// assemble builds every row from the distinct waves' results, walking
// the cells in plan order.
func (p *plan) assemble(results []WaveResult) []Row {
	out := make([]Row, len(p.rows))
	next := 0
	for r, spec := range p.rows {
		w := exampleWorkload(spec.Example)
		base := sim.FromSeconds(w.base[spec.Sys.Label])
		// job consumes one trial's sampled waves for one ODP setting.
		job := func() (exec float64, failed, flood bool) {
			var stallSum sim.Time
			for i := 0; i < p.sample[r]; i++ {
				res := results[p.cells[next]]
				next++
				failed = failed || res.Failed
				flood = flood || res.FloodDetected(w.fetches)
				stallSum += res.Time
			}
			avgWave := stallSum / sim.Time(p.sample[r])
			return (base + avgWave*sim.Time(w.waves)).Seconds(), failed, flood
		}
		row := &out[r]
		*row = Row{Example: spec.Example, Label: spec.Sys.Label, QPs: spec.Sys.QPs[spec.Example]}
		var dis, ena []float64
		for t := 0; t < p.trials; t++ {
			d, _, dFlood := job()
			e, eFailed, eFlood := job()
			dis = append(dis, d)
			if eFailed {
				row.Omitted++
			} else {
				ena = append(ena, e)
			}
			if dFlood {
				row.DisableFloods++
			}
			if eFlood {
				row.EnableFloods++
			}
		}
		row.Disable, row.Enable = stats.Summarize(dis), stats.Summarize(ena)
		if row.Disable.Mean > 0 {
			row.Ratio = row.Enable.Mean / row.Disable.Mean
		}
	}
	return out
}

// WriteRows prints rows under the Table-13 column header.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-16s %6s %16s %16s %8s %8s\n", "", "QPs", "Disable [s]", "Enable [s]", "ratio", "omitted")
	for _, row := range rows {
		fmt.Fprintf(w, "%-16s %6d %9.1f ±%4.1f %9.1f ±%4.1f %8.2f %8d\n",
			row.Label, row.QPs,
			row.Disable.Mean, row.Disable.Std,
			row.Enable.Mean, row.Enable.Std,
			row.Ratio, row.Omitted)
	}
}
