package cluster

import (
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"odpsim/internal/hostmem"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

func TestAllSystemsWellFormed(t *testing.T) {
	systems := All()
	if len(systems) != 8 {
		t.Fatalf("Table I has 8 systems, got %d", len(systems))
	}
	names := map[string]bool{}
	for _, s := range systems {
		if s.Name == "" {
			t.Errorf("system missing identity: %+v", s)
		}
		if names[s.Name] {
			t.Errorf("duplicate system name %q", s.Name)
		}
		names[s.Name] = true
		if s.CPUFactor <= 0 {
			t.Errorf("%s: CPUFactor = %v", s.Name, s.CPUFactor)
		}
		if s.Device.LinkGbps <= 0 {
			t.Errorf("%s: no link speed", s.Name)
		}
	}
}

func TestQuirkAssignments(t *testing.T) {
	if !KNL().Device.DammingQuirk {
		t.Error("KNL (ConnectX-4) must carry the damming quirk")
	}
	if !ReedbushH().Device.DammingQuirk || !ABCI().Device.DammingQuirk || !ITO().Device.DammingQuirk {
		t.Error("all ConnectX-4 clusters must carry the damming quirk (§V-C)")
	}
	if AzureHBv2().Device.DammingQuirk {
		t.Error("ConnectX-6 must not carry the damming quirk (§IX-B)")
	}
	if AzureHC().Device.MinCACK != 12 {
		t.Error("ConnectX-5 should have the ≈30 ms timeout floor (MinCACK 12)")
	}
	for _, s := range []System{PrivateA(), KNL(), ReedbushH(), AzureHBv2()} {
		if s.Device.MinCACK != 16 && s.Name != AzureHC().Name {
			if s.Device.Name != "ConnectX-5" && s.Device.MinCACK != 16 {
				t.Errorf("%s: MinCACK = %d, want 16", s.Name, s.Device.MinCACK)
			}
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("ABCI")
	if err != nil || s.Name != "ABCI" {
		t.Errorf("ByName(ABCI) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown system should error")
	}
}

func TestByNamePrefix(t *testing.T) {
	for name, want := range map[string]string{
		"KNL":         "KNL (Private servers B)",
		"Reedbush-H":  "Reedbush-H",
		"Reedbush-L":  "Reedbush-L",
		"Azure VM HC": "Azure VM HC Series",
		"Private":     "Private servers A",
		"IT":          "ITO",
	} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name != want {
			t.Errorf("ByName(%q) = %q, want %q", name, s.Name, want)
		}
	}
}

func TestByNameAmbiguous(t *testing.T) {
	for _, name := range []string{"Reed", "Azure", "A", "Reedbush-"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) should report ambiguity", name)
		}
	}
	// The empty prefix matches everything and must not resolve.
	if _, err := ByName(""); err == nil {
		t.Error("ByName(\"\") should error")
	}
}

func TestFaultKnobs(t *testing.T) {
	s := ReedbushH()
	base := s.Memory()
	s.FaultScale = 2.0
	scaled := s.Memory()
	if scaled.FaultResolveMin != 2*base.FaultResolveMin || scaled.FaultResolveMax != 2*base.FaultResolveMax {
		t.Errorf("FaultScale not applied: %v/%v vs %v/%v",
			scaled.FaultResolveMin, scaled.FaultResolveMax, base.FaultResolveMin, base.FaultResolveMax)
	}
	if scaled.PinPerPage != base.PinPerPage {
		t.Error("FaultScale must not touch pinning cost")
	}

	// LossRate routes into the built fabric: with 100% loss nothing is
	// ever delivered.
	s = ReedbushH()
	s.LossRate = 1.0
	cl := s.Build(7, 2)
	cqA, cqB := rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng)
	qa := cl.Nodes[0].CreateQP(cqA, cqA)
	qb := cl.Nodes[1].CreateQP(cqB, cqB)
	p := rnic.ConnParams{CACK: 14, RetryCount: 1, MinRNRDelay: sim.FromMillis(0.96)}
	rnic.ConnectPair(qa, qb, p, p)
	lb := cl.Nodes[0].AS.Alloc(hostmem.PageSize)
	rb2 := cl.Nodes[1].AS.Alloc(hostmem.PageSize)
	cl.Nodes[0].RegisterMR(lb, hostmem.PageSize, false)
	cl.Nodes[1].RegisterMR(rb2, hostmem.PageSize, false)
	qa.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lb, RemoteAddr: rb2, Len: 64})
	cl.Eng.Run()
	var got [2]rnic.CQE
	if n := cqA.Poll(got[:]); n != 1 || got[0].Status == rnic.WCSuccess {
		t.Fatalf("READ over a 100%%-loss fabric should abort: %+v", got[:n])
	}
	if cl.Fab.Dropped == 0 {
		t.Error("fabric should have counted drops")
	}
}

func TestMemoryScaling(t *testing.T) {
	knl, rb := KNL(), ReedbushH()
	if knl.Memory().PinPerPage <= rb.Memory().PinPerPage {
		t.Error("KNL's slow host should have slower pinning")
	}
	if knl.Memory().FaultResolveMax != rb.Memory().FaultResolveMax {
		t.Error("fault resolution is driver/RNIC bound, not CPU bound")
	}
}

func TestBuildCluster(t *testing.T) {
	cl := KNL().Build(42, 3)
	if len(cl.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(cl.Nodes))
	}
	for i, n := range cl.Nodes {
		if n.LID() != uint16(i+1) {
			t.Errorf("node %d LID = %d", i, n.LID())
		}
	}
	// Smoke: wire a READ between nodes 0 and 2.
	cqA, cqB := rnic.NewCQ(cl.Eng), rnic.NewCQ(cl.Eng)
	qa := cl.Nodes[0].CreateQP(cqA, cqA)
	qb := cl.Nodes[2].CreateQP(cqB, cqB)
	p := rnic.ConnParams{CACK: 14, RetryCount: 7, MinRNRDelay: sim.FromMillis(0.96)}
	rnic.ConnectPair(qa, qb, p, p)
	lb := cl.Nodes[0].AS.Alloc(hostmem.PageSize)
	rb2 := cl.Nodes[2].AS.Alloc(hostmem.PageSize)
	cl.Nodes[0].RegisterMR(lb, hostmem.PageSize, false)
	cl.Nodes[2].RegisterMR(rb2, hostmem.PageSize, false)
	qa.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lb, RemoteAddr: rb2, Len: 64})
	cl.Eng.Run()
	var got [2]rnic.CQE
	if n := cqA.Poll(got[:]); n != 1 || got[0].Status != rnic.WCSuccess {
		t.Fatalf("cross-node READ failed: %+v", got[:n])
	}
}

// TestNodeNamesConcurrent checks the process-wide node-name table under
// parallel builds: goroutines asking for different node counts at once
// each get "node0" … "node<n-1>", and a later, longer request renders
// only the names it adds, leaving the earlier prefix's strings shared.
func TestNodeNamesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n <= 40; n += g + 1 {
				for i, name := range nodeNames(n + 100*g) {
					if want := "node" + strconv.Itoa(i); name != want {
						t.Errorf("name %d of %d = %q, want %q", i, n+100*g, name, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	a, b := nodeNames(3), nodeNames(900)
	if unsafe.StringData(a[2]) != unsafe.StringData(b[2]) {
		t.Error("a longer request re-rendered a name already in the table")
	}
}
