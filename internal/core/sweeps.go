package core

import (
	"sort"
	"strconv"

	"odpsim/internal/cluster"
	"odpsim/internal/parallel"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
)

// The sweep layer fans its grids across internal/parallel's worker pool.
// The determinism contract (see that package's doc and DESIGN.md): every
// point's seed is derived from the point's grid position exactly as the
// historical sequential loops derived it, each point runs on its own
// engine and cluster, and results are committed in index order — so
// output is byte-identical to sequential execution for any -j.

// SweepTimeouts regenerates Figure 2: the measured timeout T_o as a
// function of C_ACK for each system, one series per system (Y in
// seconds). Points run across the worker pool.
func SweepTimeouts(systems []cluster.System, cacks []int, seed int64) []*stats.Series {
	tos := make([]sim.Time, len(systems)*len(cacks))
	engs := parallel.NewEngines()
	parallel.Run(len(tos), func(w, i int) {
		si, ci := i/len(cacks), i%len(cacks)
		tos[i] = MeasureTimeoutOn(engs.Get(w), systems[si], cacks[ci], seed+int64(si*1000+cacks[ci]))
	})
	var out []*stats.Series
	for si, sys := range systems {
		s := &stats.Series{Label: sys.Name}
		for ci, c := range cacks {
			s.Add(float64(c), tos[si*len(cacks)+ci].Seconds())
		}
		out = append(out, s)
	}
	return out
}

// IntervalRange builds an interval grid in milliseconds: from, from+step,
// …, to (inclusive within floating tolerance). Each point is computed as
// from + i·step — accumulating x += step instead drifts by an ulp per
// step, enough to truncate grid points one nanosecond low over long
// grids (the Fig-6b 0.1 ms grid's 0.8 ms point used to land on
// 799999 ns).
func IntervalRange(fromMs, toMs, stepMs float64) []sim.Time {
	if stepMs <= 0 {
		panic("core: IntervalRange needs a positive step")
	}
	var out []sim.Time
	for i := 0; ; i++ {
		x := fromMs + float64(i)*stepMs
		if x > toMs+1e-9 {
			return out
		}
		out = append(out, sim.FromMillis(x))
	}
}

// SweepExecTime regenerates Figure 4: the mean execution time of the
// micro-benchmark across trials at each posting interval (X in ms, Y in
// seconds). The interval×trial grid runs across the worker pool; per-
// interval means are reduced in trial order, so the result is bit-equal
// to the sequential sum.
func SweepExecTime(base BenchConfig, intervals []sim.Time, trials int) *stats.Series {
	execs := make([]float64, len(intervals)*trials)
	engs := parallel.NewEngines()
	parallel.Run(len(execs), func(w, i int) {
		cfg := base
		cfg.Eng = engs.Get(w)
		cfg.Interval = intervals[i/trials]
		cfg.Seed = base.Seed + int64(i%trials)*7919 + int64(cfg.Interval)
		execs[i] = RunMicrobench(cfg).ExecTime.Seconds()
	})
	s := &stats.Series{Label: base.Mode.String()}
	for ivi, iv := range intervals {
		var sum float64
		for t := 0; t < trials; t++ {
			sum += execs[ivi*trials+t]
		}
		s.Add(iv.Millis(), sum/float64(trials))
	}
	return s
}

// SweepTimeoutProbability regenerates Figures 6 and 7: the fraction of
// trials (in %) in which a Local-ACK timeout fired, per posting interval.
// The interval×trial grid runs across the worker pool.
func SweepTimeoutProbability(base BenchConfig, intervals []sim.Time, trials int, label string) *stats.Series {
	timedOut := make([]bool, len(intervals)*trials)
	engs := parallel.NewEngines()
	parallel.Run(len(timedOut), func(w, i int) {
		cfg := base
		cfg.Eng = engs.Get(w)
		cfg.Interval = intervals[i/trials]
		cfg.Seed = base.Seed + int64(i%trials)*104729 + int64(cfg.Interval)
		timedOut[i] = RunMicrobench(cfg).TimedOut()
	})
	s := &stats.Series{Label: label}
	for ivi, iv := range intervals {
		hits := 0
		for t := 0; t < trials; t++ {
			if timedOut[ivi*trials+t] {
				hits++
			}
		}
		s.Add(iv.Millis(), 100*float64(hits)/float64(trials))
	}
	return s
}

// QPSweepResult is one Figure-9 sweep: execution time and packet count
// per ODP mode, indexed like the qps argument.
type QPSweepResult struct {
	QPs     []int
	Time    map[ODPMode]*stats.Series // seconds
	Packets map[ODPMode]*stats.Series // thousands of packets, as Figure 9b
}

// SweepQPs regenerates Figure 9: the micro-benchmark with a fixed
// operation count across a range of QP counts for each requested mode.
// The qps×modes grid runs across the worker pool.
func SweepQPs(base BenchConfig, qps []int, modes []ODPMode) *QPSweepResult {
	type point struct {
		exec    float64
		packets float64
	}
	pts := make([]point, len(qps)*len(modes))
	engs := parallel.NewEngines()
	parallel.Run(len(pts), func(w, i int) {
		cfg := base
		cfg.Eng = engs.Get(w)
		cfg.NumQPs = qps[i/len(modes)]
		cfg.Mode = modes[i%len(modes)]
		cfg.Seed = base.Seed + int64(cfg.NumQPs)*31 + int64(cfg.Mode)
		r := RunMicrobench(cfg)
		pts[i] = point{exec: r.ExecTime.Seconds(), packets: float64(r.PacketsOnWire) / 1000}
	})
	res := &QPSweepResult{
		QPs:     qps,
		Time:    make(map[ODPMode]*stats.Series),
		Packets: make(map[ODPMode]*stats.Series),
	}
	for _, m := range modes {
		res.Time[m] = &stats.Series{Label: m.String()}
		res.Packets[m] = &stats.Series{Label: m.String()}
	}
	for ni, n := range qps {
		for mi, m := range modes {
			p := pts[ni*len(modes)+mi]
			res.Time[m].Add(float64(n), p.exec)
			res.Packets[m].Add(float64(n), p.packets)
		}
	}
	return res
}

// PageOfOp returns the page index of operation i's buffer slot for the
// Figure-10 layout.
func PageOfOp(i, size int) int { return i * size / 4096 }

// ProgressByPage regenerates Figure 11 from one run's completion times:
// for each page, a cumulative count of finished operations sampled every
// step (X in ms, Y = finished ops of that page).
func ProgressByPage(r *BenchResult, size int, step sim.Time) []*stats.Series {
	npages := 0
	for i := range r.CompletionTime {
		if p := PageOfOp(i, size); p >= npages {
			npages = p + 1
		}
	}
	// Completion times per page, sorted.
	perPage := make([][]sim.Time, npages)
	var last sim.Time
	for i, ct := range r.CompletionTime {
		if ct < 0 {
			continue
		}
		p := PageOfOp(i, size)
		perPage[p] = append(perPage[p], ct)
		if ct > last {
			last = ct
		}
	}
	for _, ts := range perPage {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	if step <= 0 {
		step = last / 100
		if step <= 0 {
			step = sim.Millisecond
		}
	}
	out := make([]*stats.Series, npages)
	for p := range perPage {
		s := &stats.Series{Label: "Page " + strconv.Itoa(p)}
		for t := sim.Time(0); t <= last+step; t += step {
			n := sort.Search(len(perPage[p]), func(i int) bool { return perPage[p][i] > t })
			s.Add(t.Millis(), float64(n))
		}
		out[p] = s
	}
	return out
}
