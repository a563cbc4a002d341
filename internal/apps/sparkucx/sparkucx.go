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
// (documented in DESIGN.md).
package sparkucx

import (
	"fmt"

	"odpsim/internal/cluster"
	"odpsim/internal/parallel"
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

// Config is one SparkUCX measurement.
type Config struct {
	Example Example
	Sys     SystemConfig
	Seed    int64
	ODP     bool
	// SampleWaves bounds how many shuffle waves are simulated at packet
	// level; the remaining waves reuse the sampled average (0 = 2).
	SampleWaves int
	// QPCap bounds the simulated QP count for tractability (0 = 256);
	// the flood severity saturates well below the real counts.
	QPCap int
	// Eng, when non-nil, is the engine every sampled wave is built on
	// (WaveConfig.Eng).
	Eng *sim.Engine
}

// Result is one run's outcome.
type Result struct {
	ExecTime sim.Time
	// ShuffleStall is the portion attributable to simulated waves.
	ShuffleStall sim.Time
	// FloodDetected reports whether retransmission bursts occurred.
	FloodDetected bool
	// Failed mirrors the paper's omitted IBV_WC_RETRY_EXC_ERR samples.
	Failed bool
}

// Run executes one SparkUCX measurement.
func Run(cfg Config) Result {
	w := exampleWorkload(cfg.Example)
	base, ok := w.base[cfg.Sys.Label]
	if !ok {
		panic(fmt.Sprintf("sparkucx: no baseline for %q", cfg.Sys.Label))
	}
	sample := cfg.SampleWaves
	if sample <= 0 {
		sample = 2
	}
	if sample > w.waves {
		sample = w.waves
	}
	qps := cfg.Sys.QPs[cfg.Example]
	if cap := cfg.QPCap; cap == 0 && qps > 256 {
		qps = 256
	} else if cap > 0 && qps > cap {
		qps = cap
	}

	res := Result{}
	var stallSum sim.Time
	for i := 0; i < sample; i++ {
		r := RunWave(WaveConfig{
			System:  cfg.Sys.System,
			Seed:    cfg.Seed + int64(i)*8377,
			QPs:     qps,
			Fetches: w.fetches / 2, // per direction
			Size:    w.size,
			ODP:     cfg.ODP,
			Eng:     cfg.Eng,
		})
		if r.Failed {
			res.Failed = true
		}
		if r.FloodDetected(w.fetches) {
			res.FloodDetected = true
		}
		stallSum += r.Time
	}
	avgWave := stallSum / sim.Time(sample)
	res.ShuffleStall = avgWave * sim.Time(w.waves)
	res.ExecTime = sim.FromSeconds(base) + res.ShuffleStall
	return res
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
}

// MeasureRow runs trials with and without ODP and summarizes, mirroring
// the paper's 10-trial methodology with failed samples omitted. Each
// trial's waves run on its worker's engine from engs, so one cache
// passed to every row of a scenario run recycles one engine per worker
// across all of them; a nil cache builds every wave on a fresh engine.
func MeasureRow(e Example, sc SystemConfig, trials int, seed int64, sampleWaves int, engs parallel.Engines) Row {
	// A trial's disable and enable runs share a seed but no state, so
	// both fan across the worker pool; the summaries are assembled from
	// the index-ordered results, exactly as the sequential loop did.
	type trial struct {
		dis     float64
		ena     float64
		omitted bool
	}
	results := make([]trial, trials)
	parallel.Run(trials, func(w, i int) {
		cfg := Config{Example: e, Sys: sc, Seed: seed + int64(i)*3547, SampleWaves: sampleWaves, Eng: engs.Get(w)}
		t := &results[i]
		t.dis = Run(cfg).ExecTime.Seconds()
		cfg.ODP = true
		r := Run(cfg)
		if r.Failed {
			t.omitted = true
		} else {
			t.ena = r.ExecTime.Seconds()
		}
	})
	var dis, ena []float64
	omitted := 0
	for _, t := range results {
		dis = append(dis, t.dis)
		if t.omitted {
			omitted++
			continue
		}
		ena = append(ena, t.ena)
	}
	row := Row{
		Example: e, Label: sc.Label, QPs: sc.QPs[e],
		Disable: stats.Summarize(dis), Enable: stats.Summarize(ena),
		Omitted: omitted,
	}
	if row.Disable.Mean > 0 {
		row.Ratio = row.Enable.Mean / row.Disable.Mean
	}
	return row
}
