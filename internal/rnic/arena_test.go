package rnic

import (
	"reflect"
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// arenaPair Resets eng with seed and builds a client and a server device
// on a congested fabric. With dcqcn both run the DCQCN loop (ECN marks
// from a low threshold), with tr == irnTransport the selective-repeat
// transport. The server's buffer is ODP-registered, so requests to it
// draw RNR NAKs.
func arenaPair(eng *sim.Engine, seed int64, tr transport, dcqcn bool) (fab *fabric.Fabric, client, server *RNIC, lbuf, rbuf hostmem.Addr) {
	eng.Reset(seed)
	fab = fabric.New(eng, fabric.DefaultConfig())
	congCfg := congestion.DefaultConfig()
	congCfg.ECNThresholdBytes = 512
	congCfg.DCQCN = dcqcn
	fab.EnableCongestion(congCfg)
	client = New(fab, 1, "client", ConnectX4(), hostmem.DefaultConfig())
	server = New(fab, 2, "server", ConnectX4(), hostmem.DefaultConfig())
	for _, r := range []*RNIC{client, server} {
		if dcqcn {
			r.EnableDCQCN()
		}
		if tr == irnTransport {
			r.EnableIRN()
		}
	}
	const size = bufPages * hostmem.PageSize
	lbuf, rbuf = client.AS.Alloc(size), server.AS.Alloc(size)
	client.RegisterMR(lbuf, size, false)
	server.RegisterMR(rbuf, size, true)
	return fab, client, server, lbuf, rbuf
}

// dirtyQPs runs a QP pair through every piece of state a QP carries and
// leaves it mid-flight: RNR NAKs and go-back-N pending windows (or IRN's
// SACKs and selective retransmissions), Local ACK Timeouts from dropped
// packets, DCQCN rate cuts, duplicate-atomic replay entries, consumed
// receive WRs and rendered telemetry labels, then WRs still queued and
// outstanding with their timers armed when the run stops.
// It returns the QPs and CQs it dirtied, the engine arenas' only members.
func dirtyQPs(t *testing.T, eng *sim.Engine, tr transport) ([]*QP, []*CQ) {
	t.Helper()
	fab, client, server, lbuf, rbuf := arenaPair(eng, 5, tr, true)
	cqC, cqS := NewCQ(eng), NewCQ(eng)
	qpC, qpS := client.CreateQP(cqC, cqC), server.CreateQP(cqS, cqS)
	params := ConnParams{CACK: 16, RetryCount: 7, MinRNRDelay: sim.FromMillis(0.5)}
	ConnectPair(qpC, qpS, params, params)
	post := func(base uint64) {
		for i := uint64(0); i < 3; i++ {
			qpS.PostRecv(RecvWR{ID: base + i, Addr: rbuf, Len: 64})
		}
		for i := uint64(0); i < 48; i++ {
			wr := SendWR{ID: base + i, LocalAddr: lbuf, RemoteAddr: rbuf + hostmem.Addr(i%4)*hostmem.PageSize, Len: 512}
			switch i % 6 {
			case 0, 1:
				wr.Op = OpWrite
			case 2:
				wr.Op, wr.Len = OpRead, 9000
			case 3:
				wr.Op, wr.Len, wr.CompareAdd = OpAtomicFA, 8, 1
			case 4:
				wr.Op, wr.Len, wr.CompareAdd, wr.Swap = OpAtomicCS, 8, 7, 9
			case 5:
				if i < 18 {
					wr.Op, wr.Len = OpSend, 64
				} else {
					wr.Op = OpWrite
				}
			}
			qpC.PostSend(wr)
		}
	}
	post(0)
	eng.RunUntil(200 * sim.Millisecond)
	// A link outage loses a lone WRITE, so only the Local ACK Timeout
	// can recover it.
	fab.SetDropFilter(func(*packet.Packet) bool { return true })
	qpC.PostSend(SendWR{ID: 99, Op: OpWrite, LocalAddr: lbuf, RemoteAddr: rbuf, Len: 64})
	eng.RunUntil(eng.Now() + 1200*sim.Millisecond)
	fab.SetDropFilter(nil)
	client.Telemetry().Snapshot(eng.Now())
	server.Telemetry().Snapshot(eng.Now())
	post(100)
	eng.RunUntil(eng.Now() + 20*sim.Microsecond)

	s := qpC.Stats
	if s.Completed == 0 || s.Timeouts == 0 || len(qpS.atomicReplay) == 0 || qpS.rq.Len() == 3 ||
		qpC.labels == "" || qpC.out.Len()+qpC.sq.Len() == 0 || !qpC.toTimer.Pending() && !qpC.resumeTimer.Pending() {
		t.Fatalf("%v: the QPs were not driven through every state: stats %+v, %d replay entries, %d receive WRs left, labels %q, %d queued + %d outstanding, timers %v/%v",
			tr, s, len(qpS.atomicReplay), qpS.rq.Len(), qpC.labels, qpC.sq.Len(), qpC.out.Len(), qpC.toTimer.Pending(), qpC.resumeTimer.Pending())
	}
	if client.CnpHandled == 0 {
		t.Fatalf("%v: DCQCN never cut the requester's rate", tr)
	}
	if tr == irnTransport {
		if client.IrnRetrans == 0 || server.SackSent == 0 {
			t.Fatalf("%v: no selective retransmission (%d) or SACK (%d)", tr, client.IrnRetrans, server.SackSent)
		}
	} else if s.RNRNakReceived == 0 || cqC.Len() == 0 {
		t.Fatalf("%v: no RNR NAK (%d) or unpolled completion (%d)", tr, s.RNRNakReceived, cqC.Len())
	}
	return []*QP{qpC, qpS}, []*CQ{cqC, cqS}
}

// TestArenaRecycledQPIsFresh checks DESIGN §8's rule for the QP and CQ
// arenas: after an engine Reset, a recycled QP or CQ equals a freshly
// allocated one field by field (slice capacity aside), so a field that
// recycling forgets to reset fails here. Each dirtied generation is
// checked on a device with IRN and DCQCN on and on a plain one, so a
// recycled QP can neither keep nor miss per-mode state.
func TestArenaRecycledQPIsFresh(t *testing.T) {
	for _, tr := range []transport{rcTransport, irnTransport} {
		for _, modes := range []bool{true, false} {
			eng := sim.New(1)
			dirtyQPs(t, eng, tr)
			dirtyQP, dirtyCQ := dirtyQPs(t, eng, tr) // the second generation runs on recycled members

			checkTr := rcTransport
			if modes {
				checkTr = irnTransport
			}
			_, client, _, _, _ := arenaPair(eng, 6, checkTr, modes)
			for i := range dirtyCQ {
				if cq := NewCQ(eng); cq != dirtyCQ[i] {
					t.Fatalf("NewCQ %d after Reset did not recycle the arena's CQ %d", i, i)
				}
			}
			freshCQ := NewCQ(eng)
			for i := range dirtyQP {
				if qp := client.CreateQP(freshCQ, freshCQ); qp != dirtyQP[i] {
					t.Fatalf("CreateQP %d after Reset did not recycle the arena's QP %d", i, i)
				}
			}
			freshQP := client.CreateQP(freshCQ, freshCQ)
			for i, cq := range dirtyCQ {
				sameAsFresh(t, tr.String()+" CQ", reflect.ValueOf(cq).Elem(), reflect.ValueOf(freshCQ).Elem())
				if t.Failed() {
					t.Fatalf("recycled CQ %d differs from a fresh one", i)
				}
			}
			for i, qp := range dirtyQP {
				sameAsFresh(t, tr.String()+" QP", reflect.ValueOf(qp).Elem(), reflect.ValueOf(freshQP).Elem(), "Num")
				if t.Failed() {
					t.Fatalf("recycled QP %d (dirtied over %v, checked with IRN+DCQCN %v) differs from a fresh one", i, tr, modes)
				}
			}
		}
	}
}

// sameAsFresh reports every difference between got (recycled) and want
// (fresh) under path. Pointers equal by identity or by deep value, nil
// and empty slices and maps are equal, slices compare by length and
// elements (not capacity), and functions by code pointer (a cached
// method value binds its own receiver). skip names top-level fields
// that differ by design. Arena links (arenaNext) differ by design at
// every depth: the QP's rate and irn members come from arenas too.
func sameAsFresh(t *testing.T, path string, got, want reflect.Value, skip ...string) {
	t.Helper()
	skipped := map[string]bool{arenaLink: true}
	for _, f := range skip {
		skipped[f] = true
	}
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if !skipped[name] {
			deepSame(t, path+"."+name, got.Field(i), want.Field(i), 0)
		}
	}
}

// arenaLink is the field every arena member links the next one through.
const arenaLink = "arenaNext"

func deepSame(t *testing.T, path string, a, b reflect.Value, depth int) {
	t.Helper()
	if depth > 8 {
		return
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if name := a.Type().Field(i).Name; name != arenaLink {
				deepSame(t, path+"."+name, a.Field(i), b.Field(i), depth+1)
			}
		}
	case reflect.Pointer:
		switch {
		case a.Pointer() == b.Pointer():
		case a.IsNil() || b.IsNil():
			t.Errorf("%s: recycled is nil: %v, fresh is nil: %v", path, a.IsNil(), b.IsNil())
		default:
			deepSame(t, path, a.Elem(), b.Elem(), depth+1)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			t.Errorf("%s: recycled has %d elements, fresh %d", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			deepSame(t, path, a.Index(i), b.Index(i), depth+1)
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			t.Errorf("%s: recycled has %d entries, fresh %d", path, a.Len(), b.Len())
			return
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() {
				t.Errorf("%s: recycled has key %v, fresh does not", path, k)
			} else {
				deepSame(t, path, a.MapIndex(k), v, depth+1)
			}
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() || a.Pointer() != b.Pointer() {
			t.Errorf("%s: recycled and fresh functions differ", path)
		}
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			t.Errorf("%s: recycled is nil: %v, fresh is nil: %v", path, a.IsNil(), b.IsNil())
		} else if !a.IsNil() {
			deepSame(t, path, a.Elem(), b.Elem(), depth+1)
		}
	default:
		if !a.Equal(b) {
			t.Errorf("%s: recycled %v, fresh %v", path, a, b)
		}
	}
}

// TestArenaCarvedAndRecycledQPsAlike checks the two ways CreateQP gets a
// QP: carved from the engine's QP blocks, with no queue storage yet, or
// recycled from the arena after a Reset, its WR queues seeded with the
// chunks (or the grown arrays) its last run left. The same traffic on
// both, with queues deeper than a chunk, RNR NAKs (pending windows and
// their resume timers, or IRN retries), a lost request that only the
// Local ACK Timeout recovers and DCQCN rate cuts, must give the same
// completions, stats, event count and clock.
func TestArenaCarvedAndRecycledQPsAlike(t *testing.T) {
	type outcome struct {
		cqes   []CQE
		stats  QPStats
		events uint64
		now    sim.Time
	}
	run := func(eng *sim.Engine, tr transport) (outcome, *QP) {
		fab, client, server, lbuf, rbuf := arenaPair(eng, 11, tr, true)
		cqC, cqS := NewCQ(eng), NewCQ(eng)
		qpC, qpS := client.CreateQP(cqC, cqC), server.CreateQP(cqS, cqS)
		params := ConnParams{CACK: 14, RetryCount: 7, MinRNRDelay: sim.FromMillis(0.5)}
		ConnectPair(qpC, qpS, params, params)
		sent := 0
		fab.SetDropFilter(func(p *packet.Packet) bool {
			if p.Opcode.IsRequest() {
				sent++
				return sent == 20 // one lost request: only the timeout recovers it
			}
			return false
		})
		for i := 0; i < 3*qpChunk; i++ {
			op, n := OpWrite, 512
			if i%3 == 0 {
				op, n = OpRead, 4096
			}
			qpC.PostSend(SendWR{ID: uint64(i), Op: op, LocalAddr: lbuf, RemoteAddr: rbuf + hostmem.Addr(i%4)*hostmem.PageSize, Len: n})
		}
		eng.Run()
		return outcome{pollAll(cqC), qpC.Stats, eng.EventsFired(), eng.Now()}, qpC
	}
	for _, tr := range []transport{rcTransport, irnTransport} {
		eng := sim.New(1)
		carved, qp := run(eng, tr)
		if carved.stats.Completed != 3*qpChunk || carved.stats.Timeouts == 0 || carved.stats.RNRNakReceived == 0 && tr == rcTransport {
			t.Fatalf("%v: the carved QP was not driven through every state: %+v", tr, carved.stats)
		}
		// The recycled QP starts with both kinds of kept storage: its send
		// queue's chunk and the array its outstanding queue grew into.
		if qp.sq.Cap() != qpChunk || qp.out.Cap() <= qpChunk {
			t.Fatalf("%v: queue storage %d and %d, want a chunk of %d and more", tr, qp.sq.Cap(), qp.out.Cap(), qpChunk)
		}
		recycled, again := run(eng, tr)
		if again != qp {
			t.Fatalf("%v: the second run did not recycle the arena's QP", tr)
		}
		if !reflect.DeepEqual(carved, recycled) {
			t.Errorf("%v: carved QP %+v, recycled QP %+v", tr, carved, recycled)
		}
	}
}
