package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"odpsim/internal/core"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	"odpsim/internal/sim"
	"odpsim/internal/stats"
	"odpsim/internal/telemetry"
)

// workCounts sums what the re-driven simulations did.
type workCounts struct {
	points   int
	events   uint64
	elapsed  time.Duration
	retrans  uint64
	packets  uint64
	timeouts uint64
	drops    float64
	pauseUs  float64
	sacks    float64
	faults   float64
}

// run executes one micro-benchmark on eng and adds its counts.
func (wc *workCounts) run(eng *sim.Engine, cfg core.BenchConfig) *core.BenchResult {
	cfg.Eng = eng
	start := time.Now()
	r := core.RunMicrobench(cfg)
	wc.elapsed += time.Since(start)
	wc.points++
	wc.events += eng.EventsFired()
	wc.retrans += r.Retransmits
	wc.packets += r.PacketsOnWire
	wc.timeouts += r.Timeouts
	wc.drops += r.Final.Total(telemetry.SimSwitchDrops)
	wc.pauseUs += r.Final.Total(telemetry.TxPauseDuration)
	wc.sacks += r.Final.Total(telemetry.IrnSackSent)
	wc.faults += r.Final.Total(telemetry.OdpPageFaults)
	return r
}

// redriveQPSweep replays every Figure-9 point (QP count × ODP mode, with
// the sweep's per-point seeds) and checks that both rendered tables
// appear verbatim in the reference output.
func redriveQPSweep(scs []scenario.Scenario, refs [][]byte, wc *workCounts) error {
	eng := sim.New(0)
	for i := range scs {
		sc := &scs[i]
		base, err := benchConfigOf(sc)
		if err != nil {
			return err
		}
		modes := []core.ODPMode{core.NoODP, core.ServerODP, core.ClientODP, core.BothODP}
		times := make([]*stats.Series, len(modes))
		packets := make([]*stats.Series, len(modes))
		for mi, m := range modes {
			times[mi] = &stats.Series{Label: m.String()}
			packets[mi] = &stats.Series{Label: m.String()}
		}
		for _, n := range sc.Grid.List {
			for mi, m := range modes {
				cfg := base
				cfg.NumQPs = n
				cfg.Mode = m
				cfg.Seed = base.Seed + int64(n)*31 + int64(m)
				r := wc.run(eng, cfg)
				times[mi].Add(float64(n), r.ExecTime.Seconds())
				packets[mi].Add(float64(n), float64(r.PacketsOnWire)/1000)
			}
		}
		for _, tbl := range []string{stats.Table("#QPs", times...), stats.Table("#QPs", packets...)} {
			if !bytes.Contains(refs[i], []byte(tbl)) {
				return fmt.Errorf("%s: re-driven points disagree with the printed table:\n%s", sc.Name, tbl)
			}
		}
	}
	return nil
}

// redriveIRNCompare replays every irn-compare cell and checks its exec,
// retransmit, timeout and RNR NAK columns against the printed row.
func redriveIRNCompare(scs []scenario.Scenario, refs [][]byte, wc *workCounts) error {
	eng := sim.New(0)
	for i := range scs {
		sc := &scs[i]
		base, err := benchConfigOf(sc)
		if err != nil {
			return err
		}
		// The workload floods with WRITEs when the server side faults.
		if base.Mode == core.ServerODP || base.Mode == core.BothODP {
			base.OpOverride = func(int) rnic.SendOp { return rnic.OpWrite }
		}
		cells, err := irnCells(sc)
		if err != nil {
			return err
		}
		rows := irnRows(refs[i])
		for _, c := range cells {
			cfg := base
			cfg.System = c.sys
			r := wc.run(eng, cfg)
			key := c.sys.MemMode + "/" + c.sys.Transport + "/" + c.fabric
			want := []string{time.Duration(r.ExecTime).String(),
				strconv.FormatUint(r.Retransmits, 10),
				strconv.FormatUint(r.Timeouts, 10),
				strconv.FormatUint(r.RNRNaksSent, 10)}
			got, ok := rows[key]
			if !ok || len(got) < len(want) || strings.Join(got[:len(want)], " ") != strings.Join(want, " ") {
				return fmt.Errorf("%s: re-driven cell %s = %v, printed row has %v", sc.Name, key, want, got)
			}
		}
	}
	return nil
}

// irnRows indexes an irn-compare output's table rows by
// "<memory>/<transport>/<fabric>", keeping the columns after the fabric.
func irnRows(out []byte) map[string][]string {
	rows := map[string][]string{}
	mem := ""
	for _, line := range strings.Split(string(out), "\n") {
		if m, ok := strings.CutPrefix(line, "=== memory: "); ok {
			mem = strings.TrimSuffix(m, " ===")
			continue
		}
		f := strings.Fields(line)
		if mem == "" || len(f) < 3 || (f[0] != "rc" && f[0] != "irn") {
			continue
		}
		rows[mem+"/"+f[0]+"/"+f[1]] = f[2:]
	}
	return rows
}
