package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

func withJobs(t *testing.T, n int) {
	t.Helper()
	SetJobs(n)
	t.Cleanup(func() { SetJobs(0) })
}

func TestJobsDefault(t *testing.T) {
	SetJobs(0)
	if got, want := Jobs(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Jobs() = %d, want GOMAXPROCS %d", got, want)
	}
	SetJobs(3)
	defer SetJobs(0)
	if Jobs() != 3 {
		t.Errorf("Jobs() = %d after SetJobs(3)", Jobs())
	}
}

func TestRunCoversAllIndices(t *testing.T) {
	for _, j := range []int{1, 2, 8} {
		withJobs(t, j)
		const n = 1000
		var hits [n]atomic.Int32
		Run(n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("j=%d: index %d executed %d times", j, i, c)
			}
		}
	}
}

func TestRunWorkerIsExclusive(t *testing.T) {
	// The same worker index must never run fn concurrently: per-worker
	// scratch state (reused engines) relies on it.
	withJobs(t, 4)
	var inUse [4]atomic.Int32
	Run(256, func(w, i int) {
		if inUse[w].Add(1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		for k := 0; k < 100; k++ {
			runtime.Gosched()
		}
		inUse[w].Add(-1)
	})
}

// TestRunWorkersIgnoresJobs checks that RunWorkers runs on the workers
// it is given, not on Jobs(): kv-serve's pods run on -shards workers
// while a caller holds SetJobs(1). Each call waits until all three are
// in, which only three concurrent workers can reach.
func TestRunWorkersIgnoresJobs(t *testing.T) {
	withJobs(t, 1)
	var in atomic.Int32
	var workers [3]atomic.Int32
	RunWorkers(3, 3, func(w, i int) {
		workers[w].Add(1)
		in.Add(1)
		for deadline := time.Now().Add(5 * time.Second); in.Load() < 3 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	})
	for w := range workers {
		if n := workers[w].Load(); n != 1 {
			t.Errorf("worker %d ran %d indices, want 1 each on 3 concurrent workers", w, n)
		}
	}
}

func TestMapCommitsInIndexOrder(t *testing.T) {
	withJobs(t, 8)
	got := Map(100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	withJobs(t, 4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	Run(64, func(_, i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Error("Run returned without panicking")
}

func TestRunZeroAndNegative(t *testing.T) {
	called := false
	Run(0, func(_, _ int) { called = true })
	Run(-5, func(_, _ int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

// TestConcurrentTrialsAreIsolated runs full simulations — engines,
// clusters, QPs, telemetry registries — concurrently and checks every
// trial reproduces its sequential result. Under -race this is the
// hygiene check that no component shares mutable state across trials:
// each trial's counters live in its own registry.
func TestConcurrentTrialsAreIsolated(t *testing.T) {
	run := func(seed int64) (sim.Time, float64) {
		cl := cluster.KNL().Build(seed, 2)
		client := cl.Nodes[0]
		lbuf := client.AS.Alloc(4096)
		client.RegisterMR(lbuf, 4096, true)
		server := cl.Nodes[1]
		rbuf := server.AS.Alloc(4096)
		server.RegisterMR(rbuf, 4096, false)
		cq := rnic.NewCQ(cl.Eng)
		scq := rnic.NewCQ(cl.Eng)
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		params := rnic.ConnParams{CACK: 18, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
		rnic.ConnectPair(qc, qs, params, params)
		var done sim.Time
		cl.Eng.Go("t", func(p *sim.Proc) {
			qc.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lbuf, RemoteAddr: rbuf, Len: 64})
			var wc [1]rnic.CQE
			cq.WaitN(p, wc[:])
			done = p.Now()
		})
		cl.Eng.MustRun()
		return done, cl.Telemetry().Snapshot(cl.Eng.Now()).Total("num_page_faults")
	}

	const n = 32
	wantT := make([]sim.Time, n)
	wantF := make([]float64, n)
	for i := 0; i < n; i++ {
		wantT[i], wantF[i] = run(int64(i + 1))
	}
	withJobs(t, 8)
	Run(n, func(_, i int) {
		gotT, gotF := run(int64(i + 1))
		if gotT != wantT[i] || gotF != wantF[i] {
			t.Errorf("trial %d: concurrent (%v, %v) != sequential (%v, %v)",
				i, gotT, gotF, wantT[i], wantF[i])
		}
	})
}

func TestEnginesPerWorker(t *testing.T) {
	defer SetJobs(0)
	SetJobs(2)
	engs := NewEngines()
	if len(engs) != 2 {
		t.Fatalf("NewEngines sized %d, want the worker bound 2", len(engs))
	}
	if a := engs.Get(1); a == nil || engs.Get(1) != a || engs.Get(0) == a {
		t.Error("Get must create one engine per worker and keep returning it")
	}
	var none Engines
	if none.Get(0) != nil {
		t.Error("a nil cache must return nil, BuildOn's fresh-engine signal")
	}
}
