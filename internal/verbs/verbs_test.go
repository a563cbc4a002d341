package verbs

import (
	"errors"
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

type env struct {
	cl         *cluster.Cluster
	ctxC, ctxS *Context
	pdC, pdS   *PD
	cqC, cqS   *CQ
	qpC, qpS   *QP
	lbuf, rbuf hostmem.Addr
}

func newEnv(t *testing.T, seed int64, odpFlags AccessFlags) *env {
	t.Helper()
	cl := cluster.KNL().Build(seed, 2)
	e := &env{cl: cl, ctxC: Open(cl.Nodes[0]), ctxS: Open(cl.Nodes[1])}
	e.pdC, e.pdS = e.ctxC.AllocPD(), e.ctxS.AllocPD()
	e.cqC, e.cqS = e.ctxC.CreateCQ(), e.ctxS.CreateCQ()
	e.qpC = e.pdC.CreateQP(e.cqC, e.cqC)
	e.qpS = e.pdS.CreateQP(e.cqS, e.cqS)
	attr := QPAttr{Timeout: 1, RetryCnt: 7, MinRNRTimer: sim.FromMillis(1.28)}
	ca, sa := attr, attr
	ca.DestLID, ca.DestQPNum = e.ctxS.LID(), e.qpS.Num()
	sa.DestLID, sa.DestQPNum = e.ctxC.LID(), e.qpC.Num()
	if err := e.qpC.Connect(ca); err != nil {
		t.Fatal(err)
	}
	if err := e.qpS.Connect(sa); err != nil {
		t.Fatal(err)
	}
	e.lbuf = cl.Nodes[0].AS.Alloc(8 * hostmem.PageSize)
	e.rbuf = cl.Nodes[1].AS.Alloc(8 * hostmem.PageSize)
	if _, err := e.pdC.RegisterMR(e.lbuf, 8*hostmem.PageSize, AccessLocalWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pdS.RegisterMR(e.rbuf, 8*hostmem.PageSize, AccessRemoteRead|odpFlags); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReadThroughVerbs(t *testing.T) {
	e := newEnv(t, 1, 0)
	if err := e.qpC.PostRead(1, e.lbuf, e.rbuf, 100); err != nil {
		t.Fatal(err)
	}
	e.cl.Eng.Run()
	cqes := e.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != rnic.WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
}

func TestODPReadThroughVerbs(t *testing.T) {
	e := newEnv(t, 2, AccessOnDemand)
	if err := e.qpC.PostRead(1, e.lbuf, e.rbuf, 100); err != nil {
		t.Fatal(err)
	}
	e.cl.Eng.Run()
	cqes := e.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != rnic.WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if e.cl.Nodes[1].RNRNakSent == 0 {
		t.Error("ODP MR should have faulted server-side")
	}
}

func TestModifyOrderEnforced(t *testing.T) {
	e := newEnv(t, 3, 0)
	qp := e.pdC.CreateQP(e.cqC, e.cqC)
	if err := qp.ToRTR(QPAttr{}); !errors.Is(err, ErrNotInOrder) {
		t.Errorf("ToRTR from RESET = %v", err)
	}
	if err := qp.ToRTS(QPAttr{}); !errors.Is(err, ErrNotInOrder) {
		t.Errorf("ToRTS from RESET = %v", err)
	}
	if err := qp.ToInit(); err != nil {
		t.Fatal(err)
	}
	if err := qp.ToInit(); !errors.Is(err, ErrNotInOrder) {
		t.Error("double ToInit should fail")
	}
}

func TestBadAttrRejected(t *testing.T) {
	e := newEnv(t, 4, 0)
	qp := e.pdC.CreateQP(e.cqC, e.cqC)
	if err := qp.ToInit(); err != nil {
		t.Fatal(err)
	}
	if err := qp.ToRTR(QPAttr{DestLID: 2, DestQPNum: 1}); err != nil {
		t.Fatal(err)
	}
	if err := qp.ToRTS(QPAttr{Timeout: 99}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("bad timeout = %v", err)
	}
	if err := qp.ToRTS(QPAttr{RetryCnt: 9}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("bad retry = %v", err)
	}
}

func TestPostBeforeRTSFails(t *testing.T) {
	e := newEnv(t, 5, 0)
	qp := e.pdC.CreateQP(e.cqC, e.cqC)
	if err := qp.PostRead(1, e.lbuf, e.rbuf, 100); !errors.Is(err, ErrBadState) {
		t.Errorf("post on RESET QP = %v", err)
	}
}

func TestRegisterMRValidation(t *testing.T) {
	e := newEnv(t, 6, 0)
	if _, err := e.pdC.RegisterMR(e.lbuf, 0, 0); err == nil {
		t.Error("zero-length MR should fail")
	}
}

func TestPinnedMRHasPinTime(t *testing.T) {
	e := newEnv(t, 7, 0)
	buf := e.cl.Nodes[0].AS.Alloc(4 * hostmem.PageSize)
	mr, err := e.pdC.RegisterMR(buf, 4*hostmem.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mr.PinTime == 0 {
		t.Error("pinned MR should report a pin cost")
	}
	if mr.inner.Kind != rnic.KindPinned {
		t.Errorf("flagless MR kind = %d, want pinned", mr.inner.Kind)
	}
	odpMR, err := e.pdC.RegisterMR(buf, 4*hostmem.PageSize, AccessOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if odpMR.PinTime != 0 || odpMR.inner.Kind != rnic.KindODP {
		t.Errorf("ODP MR: pin time %v, kind %d; want unpinned ODP", odpMR.PinTime, odpMR.inner.Kind)
	}
}
