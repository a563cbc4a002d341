package ucx

import (
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
)

type env struct {
	cl         *cluster.Cluster
	wA, wB     *Worker
	epA, epB   *Endpoint
	lbuf, rbuf hostmem.Addr
}

func newEnv(t *testing.T, seed int64, odp bool) *env {
	t.Helper()
	cl := cluster.KNL().Build(seed, 2)
	cfg := DefaultConfig()
	cfg.EnableODP = odp
	ctxA := NewContext(cl.Nodes[0], cfg)
	ctxB := NewContext(cl.Nodes[1], cfg)
	e := &env{cl: cl, wA: ctxA.NewWorker(), wB: ctxB.NewWorker()}
	e.epA, e.epB = Connect(e.wA, e.wB)
	e.lbuf = cl.Nodes[0].AS.Alloc(8 * hostmem.PageSize)
	e.rbuf = cl.Nodes[1].AS.Alloc(8 * hostmem.PageSize)
	e.wA.RegisterBuffer(e.lbuf, 8*hostmem.PageSize)
	e.wB.RegisterBuffer(e.rbuf, 8*hostmem.PageSize)
	return e
}

func TestBlockingGet(t *testing.T) {
	e := newEnv(t, 1, false)
	var err error
	var at sim.Time
	e.cl.Eng.Go("app", func(p *sim.Proc) {
		err = e.epA.Get(p, e.lbuf, e.rbuf, 100)
		at = p.Now()
	})
	e.cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
	if at > 20*sim.Microsecond {
		t.Errorf("pinned GET took %v", at)
	}
}

func TestODPGetFaults(t *testing.T) {
	e := newEnv(t, 2, true)
	var err error
	var at sim.Time
	e.cl.Eng.Go("app", func(p *sim.Proc) {
		err = e.epA.Get(p, e.lbuf, e.rbuf, 100)
		at = p.Now()
	})
	e.cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
	// Both-side ODP single GET ≈ RNR wait of 3.5 × 0.96 ms.
	if at < sim.FromMillis(2.5) || at > sim.FromMillis(6) {
		t.Errorf("ODP GET took %v, want ≈3.4 ms", at)
	}
	if e.cl.Nodes[1].RNRNakSent == 0 {
		t.Error("expected a server-side fault")
	}
}

func TestRegistrationCost(t *testing.T) {
	e := newEnv(t, 3, false)
	buf := e.cl.Nodes[0].AS.Alloc(16 * hostmem.PageSize)
	if cost := e.wA.RegisterBuffer(buf, 16*hostmem.PageSize); cost == 0 {
		t.Error("pinned registration must cost time")
	}
	odpEnv := newEnv(t, 4, true)
	buf2 := odpEnv.cl.Nodes[0].AS.Alloc(16 * hostmem.PageSize)
	if cost := odpEnv.wA.RegisterBuffer(buf2, 16*hostmem.PageSize); cost != 0 {
		t.Error("ODP registration must be free")
	}
}

func TestAsyncGetsAndWaitAll(t *testing.T) {
	e := newEnv(t, 5, false)
	var err error
	e.cl.Eng.Go("app", func(p *sim.Proc) {
		var rs []Request
		for i := 0; i < 20; i++ {
			rs = append(rs, e.epA.GetAsync(e.lbuf+hostmem.Addr(i*64), e.rbuf+hostmem.Addr(i*64), 64))
		}
		err = e.wA.WaitAll(p, rs)
	})
	e.cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPut(t *testing.T) {
	e := newEnv(t, 6, false)
	var err error
	e.cl.Eng.Go("app", func(p *sim.Proc) {
		err = e.epA.Put(p, e.lbuf, e.rbuf, 256)
	})
	e.cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendRecv pins drain's receive skip. A receive CQE carries the
// WRID 0 PostRecv posts it with, so if drain let it through it would
// complete whatever request 0 is. Here request 0 is B's GET of a page A
// registered on demand, which faults and waits out an RNR delay, while
// A's SEND lands in B's posted receive long before.
func TestSendRecv(t *testing.T) {
	e := newEnv(t, 7, false)
	slow := e.cl.Nodes[0].AS.Alloc(hostmem.PageSize)
	e.cl.Nodes[0].RegisterMR(slow, hostmem.PageSize, true)
	e.epB.PostRecv(e.rbuf, 4096)
	var sendErr, getErr error
	var sendAt, getAt sim.Time
	e.cl.Eng.Go("sender", func(p *sim.Proc) {
		sendErr = e.wA.Wait(p, e.epA.SendAsync(e.lbuf, 128))
		sendAt = p.Now()
	})
	e.cl.Eng.Go("getter", func(p *sim.Proc) {
		r := e.epB.GetAsync(e.rbuf+hostmem.PageSize, slow, 64)
		if r != 0 {
			t.Errorf("first request = %d, want 0", r)
			return
		}
		// The first CQE on B's CQ is the receive; claiming drains it.
		p.Wait(e.wB.cq.Cond(), func() bool { return e.wB.cq.Completed > 0 })
		if _, done := e.wB.claim(r); done || e.wB.cq.Len() != 0 || e.wB.cq.Completed != 1 {
			t.Error("draining the receive CQE completed request 0")
			return
		}
		getErr = e.wB.Wait(p, r)
		getAt = p.Now()
	})
	e.cl.Eng.MustRun()
	if sendErr != nil || getErr != nil {
		t.Fatalf("send: %v, get: %v", sendErr, getErr)
	}
	if e.cl.Nodes[0].RNRNakSent == 0 {
		t.Error("the GET should fault on A's on-demand page")
	}
	if getAt <= sendAt || getAt < DefaultConfig().MinRNRDelay {
		t.Errorf("GET completed at %v, want after the SEND (%v) and an RNR wait", getAt, sendAt)
	}
}

func TestGetErrorSurfaces(t *testing.T) {
	e := newEnv(t, 8, false)
	bad := e.cl.Nodes[1].AS.Alloc(hostmem.PageSize) // unregistered remote
	var err error
	e.cl.Eng.Go("app", func(p *sim.Proc) {
		err = e.epA.Get(p, e.lbuf, bad, 64)
	})
	e.cl.Eng.MustRun()
	if err == nil {
		t.Fatal("expected a remote access error")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MinRNRDelay != sim.FromMillis(0.96) {
		t.Errorf("MinRNRDelay = %v", cfg.MinRNRDelay)
	}
	if cfg.CACK != 18 || cfg.RetryCnt != 7 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.EnableODP {
		t.Error("ODP must be off by default (as in the real systems)")
	}
}
