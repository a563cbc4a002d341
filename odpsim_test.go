package odpsim

import (
	"testing"
)

// TestPublicAPIReadWorkflow drives the whole stack through the façade the
// way the quickstart example does.
func TestPublicAPIReadWorkflow(t *testing.T) {
	cl := KNL().Build(1, 2)
	client, server := OpenDevice(cl.Nodes[0]), OpenDevice(cl.Nodes[1])
	cap := AttachCapture(cl.Fab)

	pdC, pdS := client.AllocPD(), server.AllocPD()
	cqC, cqS := client.CreateCQ(), server.CreateCQ()
	qpC, qpS := pdC.CreateQP(cqC, cqC), pdS.CreateQP(cqS, cqS)

	attr := QPAttr{Timeout: 1, RetryCnt: 7, MinRNRTimer: FromMillis(1.28)}
	ca, sa := attr, attr
	ca.DestLID, ca.DestQPNum = server.LID(), qpS.Num()
	sa.DestLID, sa.DestQPNum = client.LID(), qpC.Num()
	if err := qpC.Connect(ca); err != nil {
		t.Fatal(err)
	}
	if err := qpS.Connect(sa); err != nil {
		t.Fatal(err)
	}

	lbuf := cl.Nodes[0].AS.Alloc(PageSize)
	rbuf := cl.Nodes[1].AS.Alloc(PageSize)
	if _, err := pdC.RegisterMR(lbuf, PageSize, AccessLocalWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := pdS.RegisterMR(rbuf, PageSize, AccessRemoteRead|AccessOnDemand); err != nil {
		t.Fatal(err)
	}

	if err := qpC.PostRead(1, lbuf, rbuf, 100); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()

	cqes := cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if cap.Total() < 3 {
		t.Errorf("capture has %d packets, want the RNR NAK workflow", cap.Total())
	}
}

func TestPublicMicrobenchAndDetection(t *testing.T) {
	cfg := DefaultBench()
	cfg.Interval = Millisecond
	cfg.WithCapture = true
	r := RunMicrobench(cfg)
	if !r.TimedOut() {
		t.Fatal("expected packet damming")
	}
	if inc := DetectDamming(r.Cap, 100*Millisecond); len(inc) != 1 {
		t.Errorf("damming incidents = %v", inc)
	}
}

func TestPublicTimeoutProbe(t *testing.T) {
	to := MeasureTimeout(AzureHC(), 1, 3)
	if to < FromMillis(20) || to > FromMillis(45) {
		t.Errorf("ConnectX-5 T_o = %v, want ≈30 ms", to)
	}
}

func TestPublicUCX(t *testing.T) {
	cl := ReedbushH().Build(9, 2)
	cfg := DefaultUCXConfig()
	cfg.EnableODP = true
	wA := NewUCXContext(cl.Nodes[0], cfg).NewWorker()
	wB := NewUCXContext(cl.Nodes[1], cfg).NewWorker()
	epA, _ := UCXConnect(wA, wB)
	lbuf := cl.Nodes[0].AS.Alloc(PageSize)
	rbuf := cl.Nodes[1].AS.Alloc(PageSize)
	wA.RegisterBuffer(lbuf, PageSize)
	wB.RegisterBuffer(rbuf, PageSize)
	var err error
	cl.Eng.Go("app", func(p *Proc) {
		err = epA.Get(p, lbuf, rbuf, 64)
	})
	cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
}
