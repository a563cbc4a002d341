package core

import (
	"math/rand"
	"testing"

	"odpsim/internal/rnic"
	"odpsim/internal/sim"
)

// TestRandomSchedulesAlwaysComplete is the harness-level liveness
// property: for random (size, ops, QPs, interval, mode) configurations,
// every operation eventually completes successfully — damming and flood
// delay, they never lose work.
func TestRandomSchedulesAlwaysComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		cfg := DefaultBench()
		cfg.Seed = int64(trial) * 131
		cfg.Size = 8 << rng.Intn(8) // 8 .. 1024
		cfg.NumOps = 1 + rng.Intn(24)
		cfg.NumQPs = 1 + rng.Intn(8)
		cfg.Interval = sim.Time(rng.Intn(3_000_000)) // 0..3 ms
		cfg.Mode = ODPMode(rng.Intn(4))
		cfg.CACK = 1 + rng.Intn(18)
		r := RunMicrobench(cfg)
		if r.Failed {
			t.Fatalf("trial %d (%+v): run failed", trial, cfg)
		}
		for i, ct := range r.CompletionTime {
			if ct < 0 {
				t.Fatalf("trial %d: op %d never completed", trial, i)
			}
		}
	}
}

// TestDammingIndependentOfOtherQPs reproduces §V-C: a dammed QP stays
// dammed even when other QPs keep posting new operations.
func TestDammingIndependentOfOtherQPs(t *testing.T) {
	sys := DefaultBench().System
	cl := sys.Build(42, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]
	buflen := 16 * 4096
	lbuf := client.AS.Alloc(buflen)
	rbuf := server.AS.Alloc(buflen)
	client.RegisterMR(lbuf, buflen, false)
	server.RegisterMR(rbuf, buflen, true)
	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 1, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	q1 := client.CreateQP(cq, cq)
	s1 := server.CreateQP(scq, scq)
	rnic.ConnectPair(q1, s1, params, params)
	q2 := client.CreateQP(cq, cq)
	s2 := server.CreateQP(scq, scq)
	rnic.ConnectPair(q2, s2, params, params)

	// QP1: the two-READ damming schedule.
	q1.PostSend(rnic.SendWR{ID: 1, Op: rnic.OpRead, LocalAddr: lbuf, RemoteAddr: rbuf, Len: 100})
	cl.Eng.After(sim.Millisecond, func() {
		q1.PostSend(rnic.SendWR{ID: 2, Op: rnic.OpRead, LocalAddr: lbuf + 100, RemoteAddr: rbuf + 100, Len: 100})
	})
	// QP2: a steady stream of fresh operations on touched pages.
	server.AS.Touch(rbuf+8*4096, 4*4096)
	for i := 0; i < 40; i++ {
		i := i
		cl.Eng.After(sim.Time(i)*200*sim.Microsecond, func() {
			q2.PostSend(rnic.SendWR{ID: uint64(100 + i), Op: rnic.OpRead,
				LocalAddr: lbuf + 8*4096, RemoteAddr: rbuf + 8*4096, Len: 64})
		})
	}
	cl.Eng.Run()
	if q1.Stats.Timeouts != 1 {
		t.Errorf("QP1 timeouts = %d: other QPs' traffic must not rescue a dammed QP", q1.Stats.Timeouts)
	}
	if q2.Stats.Timeouts != 0 {
		t.Errorf("QP2 timeouts = %d: the dammed QP must not infect others", q2.Stats.Timeouts)
	}
	if n := cq.Len(); n != 42 {
		t.Errorf("completions = %d, want 42", n)
	}
}

// TestDammingIndependentOfSize reproduces §V-C: the pitfall is
// size-irrelevant.
func TestDammingIndependentOfSize(t *testing.T) {
	for _, size := range []int{8, 100, 4096, 16384} {
		cfg := DefaultBench()
		cfg.Size = size
		cfg.Interval = sim.Millisecond
		r := RunMicrobench(cfg)
		if !r.TimedOut() {
			t.Errorf("size %d: damming should be size-independent", size)
		}
	}
}

// TestDammingSamePageOrNot reproduces §V-C: same-page vs cross-page
// second buffers both dam (size 100 keeps both ops in page 0; size 4096
// splits them).
func TestDammingSamePageOrNot(t *testing.T) {
	for _, size := range []int{100, 4096} {
		cfg := DefaultBench()
		cfg.Size = size
		cfg.Interval = sim.Millisecond
		if !RunMicrobench(cfg).TimedOut() {
			t.Errorf("size %d: expected damming", size)
		}
	}
}

// TestFloodNeverOnServerSideOnly reproduces §VI-C: the update failure is
// a client-side phenomenon — server-side ODP retransmission counts stay
// comparatively modest.
func TestFloodNeverOnServerSideOnly(t *testing.T) {
	run := func(m ODPMode) uint64 {
		cfg := DefaultBench()
		cfg.Mode = m
		cfg.Size = 32
		cfg.NumQPs = 64
		cfg.NumOps = 256
		cfg.CACK = 18
		return RunMicrobench(cfg).Retransmits
	}
	server, client := run(ServerODP), run(ClientODP)
	if client < server*2 {
		t.Errorf("client retransmits (%d) should clearly exceed server-side (%d)", client, server)
	}
}
