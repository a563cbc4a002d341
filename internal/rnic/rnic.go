package rnic

import (
	"fmt"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/npr"
	"odpsim/internal/odp"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// MemKind says how a memory range is translated for DMA: pinned up
// front, faulted on demand by the NIC (ODP), or migrated on demand by
// the driver through the NP-RDMA pool. A registration's kind is fixed
// when it is made (RegisterMR); every access then asks the device one
// question about it (ready).
type MemKind uint8

const (
	KindPinned MemKind = iota
	KindODP
	KindNPR
)

// MR is a registered memory region.
type MR struct {
	Key uint32
	// Kind is how the region translates: KindPinned for a conventional
	// registration, the device's memory mode for an on-demand one. It
	// shares Key's word, which keeps an MR at 24 bytes.
	Kind MemKind
	Addr hostmem.Addr
	Len  int
}

// Contains reports whether the byte range lies inside the region.
func (m *MR) Contains(addr hostmem.Addr, length int) bool {
	return addr >= m.Addr && addr+hostmem.Addr(length) <= m.Addr+hostmem.Addr(m.Len)
}

// RNIC is one adapter: an address space, an ODP engine, a fabric port and
// a set of queue pairs.
type RNIC struct {
	Name string
	eng  *sim.Engine
	AS   *hostmem.AddressSpace
	ODP  *odp.Engine
	Port *fabric.Port
	prof Profile
	// pool is the fabric's packet pool: every transmit packet is drawn
	// from it and returns to it after final delivery or drop.
	pool *packet.Pool

	// qps is the QP table indexed by QPN-1: QPNs are handed out
	// sequentially from 1 to RC and UD QPs alike and never reused, so
	// the table is dense and a lookup is one bounds check. numRC and
	// numUD count its entries of each transport.
	qps         []qpSlot
	numRC       int
	numUD       int
	mrs         []*MR
	nextKey     uint32
	implicitODP bool
	// mode is the kind on-demand registrations take (SetMemoryMode):
	// KindODP unless the device was set to pin or to NP-RDMA. npr is the
	// NP-RDMA driver pool, non-nil exactly when mode is KindNPR.
	mode MemKind
	npr  *npr.Pool
	// busyQPs counts QPs with outstanding requests (the load signal for
	// the §VI-C timeout-lengthening effect).
	busyQPs int
	// scratch is the engine's WR and IRN-retry free lists and RNIC, QP
	// and CQ arenas.
	scratch *scratch
	// dcqcnOn is set by EnableDCQCN: every QP created afterwards gets a
	// rate limiter starting at the profile's line rate.
	dcqcnOn bool
	// IRN state (EnableIRN): every QP created afterwards runs the
	// selective-repeat transport with irnBDP as its injection cap.
	irnOn  bool
	irnBDP int
	// Counters.
	DammedDrops       uint64 // requests discarded by the damming quirk
	RNRNakSent        uint64
	NakSeqSent        uint64 // out_of_sequence: OOS arrivals NAKed by the responder
	ReadsExecuted     uint64
	WritesExecuted    uint64
	AtomicsExecuted   uint64
	DuplicateRequests uint64 // already-executed requests re-received
	OutOfBuffer       uint64 // RNR NAKs caused by an empty receive queue
	// DCQCN counters (registered by EnableDCQCN): notification-point
	// marks seen and CNPs sent, reaction-point CNPs handled.
	EcnMarked  uint64
	CnpSent    uint64
	CnpHandled uint64
	// IRN counters (registered by EnableIRN): responder SACKs and
	// out-of-order landings, requester BDP stalls and selective
	// retransmissions.
	SackSent   uint64
	OooLanded  uint64
	BdpStalls  uint64
	IrnRetrans uint64
	// wcByStatus counts work completions per WCStatus.
	wcByStatus [numWCStatuses]uint64

	// tel is the device's counter registry — the simulator's equivalent
	// of /sys/class/infiniband/<dev>. Its tables read the counter fields
	// above, so reading them directly and scraping the registry always
	// agree. It sits after the fields the datapath touches, off their
	// cache lines.
	tel telemetry.Registry

	// receiveFn is the port handler, the receive method value bound
	// once per struct, like the arena link.
	receiveFn fabric.Handler
	// arenaNext links the engine's RNIC arena (New).
	arenaNext *RNIC
}

// clearSlice empties s for reuse, zeroing its whole storage so no stale
// pointer outlives the run that stored it.
func clearSlice[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// New creates an RNIC attached to fab at the given LID, with its own
// address space.
//
// The device struct comes from the engine's RNIC arena. A recycled one
// keeps only its QP table's and MR list's storage, cleared, its
// registry's storage and its port handler.
func New(fab *fabric.Fabric, lid uint16, name string, prof Profile, memCfg hostmem.Config) *RNIC {
	eng := fab.Engine()
	s := scratchFor(eng)
	r := s.rnics.Take(eng)
	var qps []qpSlot
	var mrs []*MR
	if r == nil {
		r = new(RNIC)
		s.rnics.Add(r)
	} else {
		qps, mrs = clearSlice(r.qps), clearSlice(r.mrs)
	}
	as := hostmem.NewAddressSpace(eng, memCfg)
	*r = RNIC{
		Name:      name,
		eng:       eng,
		AS:        as,
		ODP:       odp.New(as, prof.ODP),
		prof:      prof,
		pool:      fab.Pool(),
		scratch:   s,
		tel:       r.tel,
		nextKey:   1,
		mode:      KindODP,
		qps:       qps,
		mrs:       mrs,
		receiveFn: r.receiveFn,
		arenaNext: r.arenaNext,
	}
	if r.receiveFn == nil {
		r.receiveFn = r.receive
	}
	r.tel.Reset(telemetry.Label{Key: "device", Value: name})
	telemetry.Register(&r.tel, &metrics, r)
	r.ODP.RegisterMetrics(&r.tel)
	r.Port = fab.AttachPort(lid, name, r.receiveFn)
	r.Port.RegisterMetrics(&r.tel)
	return r
}

// Telemetry returns the device's counter registry.
func (r *RNIC) Telemetry() *telemetry.Registry { return &r.tel }

// EnableDCQCN turns on the DCQCN loop for this device: as a notification
// point it answers ECN-marked arrivals with CNPs (per-QP pacing window),
// and as a reaction point every QP created afterwards gets a rate
// limiter that CNPs cut, starting at the profile's line rate. Call
// before creating QPs; the np_*/rp_* counters register here so devices
// without DCQCN keep their exact pre-existing metric set.
func (r *RNIC) EnableDCQCN() {
	if r.dcqcnOn {
		panic("rnic: EnableDCQCN called twice")
	}
	r.dcqcnOn = true
	telemetry.Register(&r.tel, &dcqcnMetrics, r)
}

// dcqcnMetrics is the DCQCN counter table: notification-point marks
// seen and CNPs sent, reaction-point CNPs handled.
var dcqcnMetrics = telemetry.Table[RNIC]{
	{Name: telemetry.NpEcnMarked, Help: "ECN-marked packets received (notification point)", Read: func(r *RNIC) float64 { return float64(r.EcnMarked) }},
	{Name: telemetry.NpCnpSent, Help: "CNPs sent by the notification point", Read: func(r *RNIC) float64 { return float64(r.CnpSent) }},
	{Name: telemetry.RpCnpHandled, Help: "CNPs handled by the reaction point (rate cuts)", Read: func(r *RNIC) float64 { return float64(r.CnpHandled) }},
}

// SetMemoryMode sets the kind on-demand registrations take, the
// device's end of the `memory: pin|odp|npr` comparison: KindODP (the
// default) faults pages through the NIC, KindPinned pins them, and
// KindNPR translates through an NP-RDMA pool built from nprCfg (a
// bounded DMA-able pool plus a driver-maintained shadow table). Call
// before registering memory; the npr_* counters register here so
// devices without NPR keep their exact pre-existing metric set.
func (r *RNIC) SetMemoryMode(mode MemKind, nprCfg npr.Config) {
	if r.mode != KindODP {
		panic("rnic: SetMemoryMode called twice")
	}
	r.mode = mode
	if mode == KindNPR {
		r.npr = npr.New(r.AS, nprCfg)
		r.npr.RegisterMetrics(&r.tel)
	}
}

// NPR returns the device's NP-RDMA pool, or nil when NPR is off.
func (r *RNIC) NPR() *npr.Pool { return r.npr }

// metrics is the device-level counter table under the hw_counter
// vocabulary (plus sim_* names for quantities real hardware does not
// export), with the work completions by status.
var metrics = append(telemetry.Table[RNIC]{
	{Name: telemetry.OutOfSequence, Help: "out-of-order request arrivals NAKed by the responder", Read: func(r *RNIC) float64 { return float64(r.NakSeqSent) }},
	{Name: telemetry.DuplicateRequest, Help: "already-executed requests re-received by the responder", Read: func(r *RNIC) float64 { return float64(r.DuplicateRequests) }},
	{Name: telemetry.OutOfBuffer, Help: "responder RNR NAKs caused by an empty receive queue", Read: func(r *RNIC) float64 { return float64(r.OutOfBuffer) }},
	{Name: telemetry.RxReadRequests, Help: "RDMA READ requests executed by the responder", Read: func(r *RNIC) float64 { return float64(r.ReadsExecuted) }},
	{Name: telemetry.RxWriteRequests, Help: "RDMA WRITE requests executed by the responder", Read: func(r *RNIC) float64 { return float64(r.WritesExecuted) }},
	{Name: telemetry.RxAtomicRequests, Help: "atomic requests executed by the responder", Read: func(r *RNIC) float64 { return float64(r.AtomicsExecuted) }},
	{Name: telemetry.SimRNRNakSent, Help: "RNR NAKs sent for any cause (ODP miss or empty RQ)", Read: func(r *RNIC) float64 { return float64(r.RNRNakSent) }},
	{Name: telemetry.SimDammedDrops, Help: "requests silently discarded by the damming quirk (sim ground truth)", Read: func(r *RNIC) float64 { return float64(r.DammedDrops) }},
}, completionMetrics()...)

// completionMetrics lists one completions counter per work-completion
// status, labelled status="IBV_WC_…".
func completionMetrics() telemetry.Table[RNIC] {
	t := make(telemetry.Table[RNIC], numWCStatuses)
	for s := range t {
		t[s] = telemetry.Metric[RNIC]{
			Name:  telemetry.Completions,
			Help:  "work completions by status",
			Label: telemetry.Label{Key: "status", Value: WCStatus(s).String()},
			Read:  func(r *RNIC) float64 { return float64(r.wcByStatus[s]) },
		}
	}
	return t
}

// countWC tallies one work completion in the per-status counters.
func (r *RNIC) countWC(s WCStatus) {
	if int(s) >= 0 && int(s) < numWCStatuses {
		r.wcByStatus[s]++
	}
}

// Engine returns the simulation engine.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// span is the number of PSNs a READ of length bytes occupies: one per
// MTU-sized response packet, and at least one.
func (r *RNIC) span(length int) int {
	return max(1, (length+MTU-1)/MTU)
}

// LID returns the port LID.
func (r *RNIC) LID() uint16 { return r.Port.LID }

// EnableImplicitODP turns on Implicit ODP: the whole address space is
// accessible through on-demand paging without explicit registration.
func (r *RNIC) EnableImplicitODP() { r.implicitODP = true }

// RegisterMR registers a memory region. A conventional registration
// (onDemand false) pins the range, paying the per-page pinning cost in
// bookkeeping; the time cost is returned so a caller process can charge
// it. An on-demand registration (ibv_reg_mr's IBV_ACCESS_ON_DEMAND)
// takes the device's memory mode: Explicit ODP normally, which is free
// at registration time and faults on access, an NP-RDMA region under
// KindNPR, also free, whose cost moves to first touch as a migration
// stall, or a pinned region under KindPinned.
func (r *RNIC) RegisterMR(addr hostmem.Addr, length int, onDemand bool) (*MR, sim.Time) {
	mr := r.scratch.mrs.New()
	*mr = MR{Key: r.nextKey, Addr: addr, Len: length}
	if onDemand {
		mr.Kind = r.mode
	}
	var cost sim.Time
	if mr.Kind == KindPinned {
		cost = r.AS.Pin(addr, length)
	}
	r.nextKey++
	r.mrs = append(r.mrs, mr)
	return mr, cost
}

// AdviseMR prefetches ODP translations for the range into qp's context,
// modelling ibv_advise_mr(IBV_ADVISE_MR_ADVICE_PREFETCH): the faults run
// through the same serial pipeline, but before traffic needs them. Li et
// al. found receiver-side prefetching effective; it is also a packet-flood
// avoidance measure, since prefetched pairs never go stale mid-transfer.
func (r *RNIC) AdviseMR(qpn uint32, addr hostmem.Addr, length int) {
	r.ODP.Prefetch(qpn, addr, length)
}

// DeregisterMR removes a region, unpinning conventional registrations.
func (r *RNIC) DeregisterMR(mr *MR) {
	for i, m := range r.mrs {
		if m == mr {
			r.mrs = append(r.mrs[:i], r.mrs[i+1:]...)
			if mr.Kind == KindPinned {
				r.AS.Unpin(mr.Addr, mr.Len)
			}
			return
		}
	}
	panic("rnic: DeregisterMR of unknown MR")
}

// lookupMR finds a registration covering the range. ok is false when
// the range is not registered and implicit registration is off; kind
// reports how the covering registration translates. Under implicit ODP
// the fallback kind is NP-RDMA on an NPR device, so its implicit ranges
// go through the shadow table too, and ODP otherwise.
func (r *RNIC) lookupMR(addr hostmem.Addr, length int) (kind MemKind, ok bool) {
	for _, m := range r.mrs {
		if m.Contains(addr, length) {
			return m.Kind, true
		}
	}
	if r.implicitODP {
		if r.mode == KindNPR {
			return KindNPR, true
		}
		return KindODP, true
	}
	return KindPinned, false
}

// ready is the one question an access asks of a buffer's translation:
// when can qpn's access to the range proceed? Pinned memory is ready at
// once. NP-RDMA memory is always translatable, after stall, the driver's
// synchronous migration of the range's cold pages into the pool; the
// NIC never sees a miss, so no NAK, no pending window, no damming. ODP
// memory is ready at once when the NIC holds a valid translation;
// otherwise ready registers the network page fault and reports
// ok=false. Re-arrivals while the fault is pending are free on a
// responder: the server is stateless, it just NAKs again, and "the
// requests that cannot be processed can be completely ignored" (§VI-C).
// Only the client-side discard path loads the ODP pipeline.
func (r *RNIC) ready(qpn uint32, kind MemKind, addr hostmem.Addr, length int) (stall sim.Time, ok bool) {
	switch kind {
	case KindNPR:
		return r.npr.EnsureRange(addr, length), true
	case KindODP:
		if r.ODP.Access(qpn, addr, length) {
			return 0, true
		}
		r.ODP.Fault(qpn, addr, length)
		return 0, false
	}
	return 0, true
}

// scratch is the storage every RNIC on an engine draws from. It lives
// in the engine's Aux storage, so it survives Reset: clusters rebuilt on
// a reused engine take the previous run's objects, as the packet pool's
// users do.
type scratch struct {
	// freeWQEs is the free list, linked through wqe.next, of send work
	// request objects whose WR completed, flushed or was dropped by
	// Reset.
	freeWQEs *wqe
	// wqes carves the WR objects the free list has not yet seen.
	wqes sim.Blocks[wqe]
	// freeRetries is the free list, linked through irnRetry.next, of
	// fired IRN retransmission timers.
	freeRetries *irnRetry
	// rnics, qps and cqs are the engine-generation arenas New, CreateQP
	// and NewCQ take from.
	rnics sim.Arena[RNIC]
	qps   sim.Arena[QP]
	cqs   sim.Arena[CQ]
	// qpBlocks carves the QPs the arena has not yet seen, and chunks the
	// first arrays of their WR queues (see qpChunk). mrs carves every
	// registration: an MR is never recycled, as a caller may hold it
	// past DeregisterMR, so a deregistered one's block is freed when
	// nothing holds any MR carved from it.
	qpBlocks sim.Blocks[QP]
	chunks   sim.Blocks[[qpChunk]*wqe]
	mrs      sim.Blocks[MR]
}

// scratchKey is the engine Aux key the scratch lives under.
const scratchKey = "rnic.scratch"

func scratchFor(eng *sim.Engine) *scratch {
	s, _ := eng.Aux(scratchKey).(*scratch)
	if s == nil {
		s = &scratch{}
		s.wqes.Make = func(n int) []wqe { return make([]wqe, n) }
		s.wqes.Max = wqeBlock
		s.qpBlocks.Make = func(n int) []QP { return make([]QP, n) }
		s.qpBlocks.Max = qpBlock
		s.chunks.Make = func(n int) [][qpChunk]*wqe { return make([][qpChunk]*wqe, n) }
		s.chunks.Max = chunkBlock
		s.mrs.Make = func(n int) []MR { return make([]MR, n) }
		s.mrs.Max = mrBlock
		s.rnics.Link = func(r *RNIC) **RNIC { return &r.arenaNext }
		s.qps.Link = func(qp *QP) **QP { return &qp.arenaNext }
		s.cqs.Link = func(cq *CQ) **CQ { return &cq.arenaNext }
		eng.SetAux(scratchKey, s)
	}
	return s
}

// The block caps fill one 8 KiB size class each: 85 WR objects (8,160
// bytes), 20 QPs (8,000), 256 queue chunks (8,192) and 341 MRs (8,184).
const (
	wqeBlock   = 85
	qpBlock    = 20
	chunkBlock = 256
	mrBlock    = 341
)

// newWQE takes a zeroed send work request object from the free list,
// carving a fresh one only when the list is empty.
func (r *RNIC) newWQE() *wqe {
	w := r.scratch.freeWQEs
	if w == nil {
		return r.scratch.wqes.New()
	}
	r.scratch.freeWQEs = w.next
	w.next = nil
	return w
}

// freeWQE zeroes a WR object that left its QP's queues and returns it to
// the free list.
func (r *RNIC) freeWQE(w *wqe) {
	*w = wqe{next: r.scratch.freeWQEs}
	r.scratch.freeWQEs = w
}

// CreateQP creates a queue pair bound to the completion queues, taking
// it from the engine's QP arena, or from the QP blocks when every
// member is taken.
func (r *RNIC) CreateQP(sendCQ, recvCQ *CQ) *QP {
	qp := r.scratch.qps.Take(r.eng)
	if qp != nil {
		qp.recycle()
	} else {
		qp = r.scratch.qpBlocks.New()
		r.scratch.qps.Add(qp)
	}
	qp.rnic = r
	qp.Num = r.nextQPN()
	qp.sendCQ, qp.recvCQ = sendCQ, recvCQ
	if r.dcqcnOn {
		qp.rate = congestion.NewRateState(r.eng, r.prof.LinkGbps)
	}
	if r.irnOn {
		qp.irn = irn.StateFor(r.eng)
		qp.irn.RB.Init(0)
		qp.irn.TX.Init(r.irnBDP, 0)
	}
	r.addQP(qpSlot{rc: qp})
	return qp
}

// receive dispatches an arriving packet to the destination QP, on the
// requester or responder path depending on the opcode. With DCQCN on,
// the device also acts as notification point (ECN-marked arrivals are
// answered with CNPs) and reaction point (CNPs cut the target QP's
// rate) before normal dispatch.
func (r *RNIC) receive(pkt *packet.Packet) {
	if pkt.Opcode == packet.OpCNP {
		if qp := r.slot(pkt.DestQP).rc; qp != nil && qp.rate != nil {
			r.CnpHandled++
			qp.rate.HandleCNP()
		}
		return
	}
	if pkt.ECN && r.dcqcnOn {
		r.EcnMarked++
		r.maybeSendCNP(pkt)
	}
	if pkt.Opcode == packet.OpUDSend {
		if udqp := r.slot(pkt.DestQP).ud; udqp != nil {
			udqp.receive(pkt)
		}
		return
	}
	qp := r.slot(pkt.DestQP).rc
	if qp == nil {
		return // no such QP: silently dropped, like real hardware
	}
	if pkt.Opcode.IsRequest() {
		qp.responderReceive(pkt)
	} else {
		qp.requesterReceive(pkt)
	}
}

// maybeSendCNP answers an ECN-marked packet with a Congestion
// Notification Packet to its sender, rate-limited per destination QP by
// the notification-point pacing window (one CNP per MinCNPInterval, as
// the mlx5 N_CNP timer does).
func (r *RNIC) maybeSendCNP(marked *packet.Packet) {
	qp := r.slot(marked.DestQP).rc
	if qp == nil {
		return
	}
	now := r.eng.Now()
	if qp.lastCNP > 0 && now-qp.lastCNP < congestion.MinCNPInterval {
		return
	}
	qp.lastCNP = now
	cnp := r.pool.Get()
	cnp.Opcode = packet.OpCNP
	cnp.DLID = marked.SLID
	cnp.DestQP = marked.SrcQP
	cnp.SrcQP = marked.DestQP
	r.CnpSent++
	r.Port.Send(cnp)
}

// ConnectPair wires two QPs into one Reliable Connection with symmetric
// parameters, the way the benchmark's init phase exchanges QP numbers and
// LIDs out of band.
func ConnectPair(a, b *QP, pa, pb ConnParams) {
	a.Connect(b.rnic.LID(), b.Num, pa)
	b.Connect(a.rnic.LID(), a.Num, pb)
}

// String implements fmt.Stringer.
func (r *RNIC) String() string {
	return fmt.Sprintf("%s(%s, LID %d)", r.Name, r.prof.Name, r.Port.LID)
}
