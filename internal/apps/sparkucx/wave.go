package sparkucx

import (
	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/ucx"
)

// WaveConfig describes one shuffle fetch wave: two executors fetching
// each other's map outputs through many QPs — the SparkUCX communication
// pattern that triggers packet flood when the fetch buffers are fresh ODP
// pages.
type WaveConfig struct {
	System cluster.System
	Seed   int64
	// QPs is the number of connections per direction.
	QPs int
	// Fetches is the number of fetch operations per direction.
	Fetches int
	// Size is the bytes per fetch.
	Size int
	// ODP registers all shuffle buffers with on-demand paging.
	ODP bool
	// Eng, when non-nil, is Reset with Seed and reused as the wave's
	// engine, so its arenas (QPs, CQs, fabric, memory, ODP state) carry
	// over from the previous wave built on it. The wave is byte-identical
	// to one on a fresh engine. An engine must not be shared by
	// concurrent waves.
	Eng *sim.Engine
}

// WaveResult measures one wave.
type WaveResult struct {
	Time        sim.Time
	Packets     uint64
	Retransmits uint64
	Timeouts    uint64
	Failed      bool
}

// FloodDetected reports whether retransmissions exceeded the useful
// traffic — the packet-flood fingerprint.
func (w WaveResult) FloodDetected(fetches int) bool {
	return w.Retransmits > uint64(fetches)
}

// RunWave executes one bidirectional shuffle wave on a fresh two-node
// cluster (on cfg.Eng when set) and returns its measurements.
func RunWave(cfg WaveConfig) WaveResult {
	if cfg.QPs <= 0 || cfg.Fetches <= 0 || cfg.Size <= 0 {
		panic("sparkucx: QPs, Fetches and Size must be positive")
	}
	cl := cfg.System.BuildOn(cfg.Eng, cfg.Seed, 2)
	ucfg := ucx.DefaultConfig()
	ucfg.EnableODP = cfg.ODP
	wA := ucx.NewContext(cl.Nodes[0], ucfg).NewWorker()
	wB := ucx.NewContext(cl.Nodes[1], ucfg).NewWorker()

	epsA := make([]*ucx.Endpoint, cfg.QPs)
	epsB := make([]*ucx.Endpoint, cfg.QPs)
	for i := range epsA {
		epsA[i], epsB[i] = ucx.Connect(wA, wB)
	}

	buflen := cfg.Fetches * cfg.Size
	// Map outputs (sources, pre-touched: the mapper just wrote them) and
	// fetch destinations (fresh pages — where client-side ODP faults).
	srcA, dstA := cl.Nodes[0].AS.Alloc(buflen), cl.Nodes[0].AS.Alloc(buflen)
	srcB, dstB := cl.Nodes[1].AS.Alloc(buflen), cl.Nodes[1].AS.Alloc(buflen)
	cl.Nodes[0].AS.Touch(srcA, buflen)
	cl.Nodes[1].AS.Touch(srcB, buflen)
	wA.RegisterBuffer(srcA, buflen)
	wA.RegisterBuffer(dstA, buflen)
	wB.RegisterBuffer(srcB, buflen)
	wB.RegisterBuffer(dstB, buflen)

	post := sim.Time(float64(300*sim.Nanosecond) * cfg.System.CPUFactor)
	var res WaveResult
	var done sim.Time
	fetchAll := func(w *ucx.Worker, eps []*ucx.Endpoint, dst, src hostmem.Addr) func(*sim.Proc) {
		return func(p *sim.Proc) {
			rs := make([]ucx.Request, 0, cfg.Fetches)
			for i := 0; i < cfg.Fetches; i++ {
				off := hostmem.Addr(i * cfg.Size)
				rs = append(rs, eps[i%cfg.QPs].GetAsync(dst+off, src+off, cfg.Size))
				p.Sleep(post)
			}
			if err := w.WaitAll(p, rs); err != nil {
				res.Failed = true
			}
			if p.Now() > done {
				done = p.Now()
			}
		}
	}
	cl.Eng.Go("executorA", fetchAll(wA, epsA, dstA, srcB))
	cl.Eng.Go("executorB", fetchAll(wB, epsB, dstB, srcA))
	cl.Eng.MustRun()

	res.Time = done
	res.Packets = cl.Fab.Sent
	for _, eps := range [][]*ucx.Endpoint{epsA, epsB} {
		for _, ep := range eps {
			res.Retransmits += ep.QP().Stats.Retransmits
			res.Timeouts += ep.QP().Stats.Timeouts
		}
	}
	return res
}
