package argodsm

import (
	"testing"

	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/ucx"
)

func buildDSM(t *testing.T, seed int64, nodes int, odp bool) (*cluster.Cluster, *DSM) {
	t.Helper()
	cl := cluster.ReedbushH().Build(seed, nodes)
	ucfg := ucx.DefaultConfig()
	ucfg.EnableODP = odp
	var d *DSM
	cl.Eng.Go("setup", func(p *sim.Proc) {
		d = NewDSM(p, cl, 64*hostmem.PageSize, ucfg)
	})
	cl.Eng.MustRun()
	return cl, d
}

func TestDSMReadCaching(t *testing.T) {
	cl, d := buildDSM(t, 1, 2, false)
	n1 := d.Nodes()[1]
	var errs []error
	cl.Eng.Go("reader", func(p *sim.Proc) {
		errs = append(errs, n1.Read(p, 0))           // home: node 0 → remote GET
		errs = append(errs, n1.Read(p, 0))           // cached
		errs = append(errs, n1.Read(p, d.Pages()-1)) // own partition: local
	})
	cl.Eng.MustRun()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n1.RemoteReads != 1 {
		t.Errorf("RemoteReads = %d, want 1 (second read cached, third local)", n1.RemoteReads)
	}
}

func TestDSMWriteThrough(t *testing.T) {
	cl, d := buildDSM(t, 2, 2, false)
	n1 := d.Nodes()[1]
	var err error
	cl.Eng.Go("writer", func(p *sim.Proc) {
		err = n1.Write(p, 1)
	})
	cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
	if n1.RemoteReads != 1 || n1.RemoteWrites != 1 {
		t.Errorf("reads=%d writes=%d, want fetch+write-through", n1.RemoteReads, n1.RemoteWrites)
	}
}

func TestDSMWithODPFaults(t *testing.T) {
	cl, d := buildDSM(t, 6, 2, true)
	n1 := d.Nodes()[1]
	var err error
	cl.Eng.Go("reader", func(p *sim.Proc) {
		err = n1.Read(p, 0)
	})
	cl.Eng.MustRun()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Nodes[0].RNRNakSent == 0 {
		t.Error("ODP DSM read should fault on the home node")
	}
}

func TestDSMPageRangeValidation(t *testing.T) {
	cl, d := buildDSM(t, 7, 2, false)
	var err error
	cl.Eng.Go("r", func(p *sim.Proc) {
		err = d.Nodes()[1].Read(p, 10_000)
	})
	cl.Eng.MustRun()
	if err == nil {
		t.Error("out-of-range page should error")
	}
}
