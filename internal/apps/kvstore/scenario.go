package kvstore

import (
	"fmt"

	"odpsim/internal/scenario"
	"odpsim/internal/sim"
	"odpsim/internal/softrel"
	"odpsim/internal/stats"
)

// The HERD-style counterpoint as a scenario workload: a PUT+GET loop
// over UD with software reliability. It never meets the RC timeout
// machinery, so declared faults (loss, congestion, slow page faults)
// cost application-level retries in software-timeout time instead of
// half-second damming stalls — runnable against any Table-I system via
// a JSON spec, no Go required.

func init() { scenario.RegisterWorkload(workload{}) }

type workload struct{}

func (workload) Kind() string { return "kvstore" }

func (workload) Validate(sc *scenario.Scenario) error { return nil }

func (workload) Run(sc *scenario.Scenario, out *scenario.Output) error {
	sys, err := sc.ResolvedSystem()
	if err != nil {
		return err
	}
	n := uint64(sc.Ops)
	if n == 0 {
		n = 1000
	}
	fmt.Fprintf(out.W, "HERD-style KV over UD, %s, %d PUTs + %d GETs, loss %.2f%%\n\n",
		sys.Name, n, n, 100*sc.Faults.LossRate)

	cl := sys.Build(sc.SeedOrDefault(), 2)
	cfg := softrel.DefaultConfig()
	srv := NewServer(cl.Nodes[1], cfg, 300*sim.Nanosecond)
	cli := NewClient(cl.Nodes[0], cfg, srv)

	var lats []float64
	var worst sim.Time
	failures := 0
	cl.Eng.Go("kvstore", func(p *sim.Proc) {
		op := func(f func(p *sim.Proc) error) {
			start := p.Now()
			if err := f(p); err != nil {
				failures++
				return
			}
			d := p.Now() - start
			lats = append(lats, d.Micros())
			if d > worst {
				worst = d
			}
		}
		for i := uint64(0); i < n; i++ {
			k := i
			op(func(p *sim.Proc) error { return cli.Put(p, k, k*k) })
		}
		for i := uint64(0); i < n; i++ {
			k := i
			op(func(p *sim.Proc) error {
				v, found, err := cli.Get(p, k)
				if err != nil {
					return err
				}
				if !found || v != k*k {
					return ErrBadResponse
				}
				return nil
			})
		}
	})
	// Run, not MustRun: the server's receive loop parks forever once the
	// client is done — that is the daemon shape, not a deadlock.
	// Shutdown then unwinds it, so its goroutine and the cluster it
	// references do not outlive the run.
	cl.Eng.Run()
	cl.Eng.Shutdown()

	calls, retrans, rpcFailures := cli.Stats()
	fmt.Fprintf(out.W, "per-op latency [µs]: %s\n", stats.Summarize(lats))
	fmt.Fprintf(out.W, "worst op latency: %v\n", worst)
	fmt.Fprintf(out.W, "RPCs %d, app-level retransmissions %d, failed ops %d (rpc failures %d)\n",
		calls, retrans, failures, rpcFailures)
	fmt.Fprintf(out.W, "server handled %d GETs, %d PUTs; fabric dropped %d packets\n",
		srv.Gets, srv.Puts, cl.Fab.Dropped)
	return nil
}
