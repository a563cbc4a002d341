package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// probeRef is a nominal kernel duration, within the 5-10 ms the kernel
// takes on the reference host (a 2-vCPU Intel Xeon VM). Host times are
// reported scaled by (probeRef / kernel time)^probeExp, i.e. in seconds
// at the host speed where the kernel takes 6 ms.
const probeRef = 6 * time.Millisecond

// probeState is the kernel's working set: built once and reused, so the
// kernel neither grows the heap nor moves the process's peak RSS.
var probeState struct {
	m       map[uint64]int
	src, xs []int
	bufs    [][]byte
}

// probe times a fixed calibration kernel shaped like the simulator's own
// work (map lookups and updates over a ~2 MB working set, a sort, many
// small allocations) from a collected heap. It is the harness's measure
// of how fast the host runs single-threaded code right now: the same
// execution takes up to twice as long while the host is busy, and the
// kernel slows with it.
//
// The kernel is benchmark code, but how much of its working set is still
// cached depends on what ran before it, so the harness only probes right
// after program work (runner.probeAfter), which always runs more memory
// through the cache than the kernel's own 2 MB. A probe right after
// another probe found its data hot: 64 MB of extra live heap touched and
// 32 MB of garbage allocated before it slowed it by 3-11%. After program
// work the same change moves the kernel by about 2% (NOISE.md).
func probe() time.Duration {
	s := &probeState
	if s.m == nil {
		s.m = make(map[uint64]int, 50000)
		for k := uint64(0); k < 50000; k++ {
			s.m[k] = 0
		}
		rng := rand.New(rand.NewSource(2))
		s.src = make([]int, 40000)
		for i := range s.src {
			s.src[i] = rng.Int()
		}
		s.xs = make([]int, len(s.src))
		s.bufs = make([][]byte, 2000)
	}
	runtime.GC()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		s.m[rng.Uint64()%50000] += i
	}
	copy(s.xs, s.src)
	sort.Ints(s.xs)
	for i := range s.bufs {
		s.bufs[i] = make([]byte, 64+i%256)
	}
	elapsed := time.Since(start)
	clear(s.bufs)
	return elapsed
}

// probeExp is how much more the program slows than the kernel when the
// host is busy, as an exponent. In the two busy sets of ten runs per
// workload recorded in noise-samples.jsonl ("fit"), the log of each run's
// median execution time rose with the log of its median kernel time with
// slopes of 1.14 to 1.45, median 1.2 (correlation 0.97 to 1.00), so plain
// proportional scaling left spreads up to 0.12 between runs (NOISE.md).
const probeExp = 1.2

// normalize scales a host time measured while the probe took p to the
// reference speed.
func normalize(seconds float64, p time.Duration) float64 {
	return seconds * math.Pow(probeRef.Seconds()/p.Seconds(), probeExp)
}
