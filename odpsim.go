// Package odpsim is a deterministic, packet-level simulator of InfiniBand
// Reliable Connection transport with On-Demand Paging (ODP), built to
// reproduce "Pitfalls of InfiniBand with On-Demand Paging" (Fukuoka,
// Sato, Taura — ISPASS 2021).
//
// The library models RNIC device generations (ConnectX-3…6), the RC
// requester/responder state machines with real timeout/retry/RNR-NAK
// semantics, the ODP fault pipeline with per-QP page-status updates, an
// ibdump-style capture layer, and the two performance pitfalls the paper
// reveals:
//
//   - packet damming — a request posted during a pending window is lost
//     on replay and recovers only through a several-hundred-millisecond
//     Local-ACK timeout (§V);
//   - packet flood — simultaneous client-side page faults across many QPs
//     starve the per-QP page-status updates, provoking seconds of massive
//     retransmission (§VI).
//
// This package is a façade: it re-exports the part of the internal
// packages that the bundled examples call, so they need a single import.
// Every figure and table of the paper is a registered scenario behind
// `odpsim run` (cmd/odpsim); the scenario layer has no Go façade.
package odpsim

import (
	"io"

	"odpsim/internal/capture"
	"odpsim/internal/cluster"
	"odpsim/internal/core"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/perftest"
	"odpsim/internal/regcache"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/softrel"
	"odpsim/internal/stats"
	"odpsim/internal/ucx"
	"odpsim/internal/verbs"
)

// --- Simulation kernel ---

// Engine is the deterministic discrete-event simulation engine.
type Engine = sim.Engine

// Proc is a simulated process (blocking-style code on the engine).
type Proc = sim.Proc

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// FromMillis converts milliseconds to Time.
func FromMillis(ms float64) Time { return sim.FromMillis(ms) }

// --- Memory and devices ---

// Addr is a virtual address in a node's address space.
type Addr = hostmem.Addr

// PageSize is the host page size (4096).
const PageSize = hostmem.PageSize

// RNIC is one simulated adapter.
type RNIC = rnic.RNIC

// --- Systems (Tables I & II) ---

// System is one of the paper's measured systems.
type System = cluster.System

// Systems of Table I (five of its eight).
var (
	KNL       = cluster.KNL
	ReedbushH = cluster.ReedbushH
	ABCI      = cluster.ABCI
	AzureHC   = cluster.AzureHC
	AzureHBv2 = cluster.AzureHBv2
)

// --- Verbs ---

// QPAttr carries modify-QP attributes (timeout, retry_cnt, min RNR).
type QPAttr = verbs.QPAttr

// Registration flags; AccessOnDemand selects an ODP registration.
const (
	AccessLocalWrite = verbs.AccessLocalWrite
	AccessRemoteRead = verbs.AccessRemoteRead
	AccessOnDemand   = verbs.AccessOnDemand
)

// WCSuccess is the successful work-completion status.
const WCSuccess = rnic.WCSuccess

// OpenDevice wraps an RNIC into a verbs context.
func OpenDevice(nic *RNIC) *verbs.Context { return verbs.Open(nic) }

// --- Capture (ibdump) ---

// AttachCapture taps a cluster's fabric like ibdump.
func AttachCapture(f *fabric.Fabric) *capture.Capture { return capture.Attach(f) }

// ReadTrace parses a binary capture written with Capture.WriteTrace.
func ReadTrace(r io.Reader) ([]capture.Record, error) { return capture.ReadTrace(r) }

// CaptureFromRecords rebuilds a capture from reloaded records so the
// detectors can analyze saved traces offline.
func CaptureFromRecords(rs []capture.Record) *capture.Capture { return capture.FromRecords(rs) }

// --- UCX-like layer ---

// UCXConfig mirrors the UCX environment settings the paper toggles.
type UCXConfig = ucx.Config

// Request is an in-flight asynchronous UCX operation.
type Request = ucx.Request

// DefaultUCXConfig returns the paper's UCX defaults (min RNR 0.96 ms,
// C_ACK 18, C_retry 7, ODP off).
func DefaultUCXConfig() UCXConfig { return ucx.DefaultConfig() }

// NewUCXContext creates a UCX context on a node.
func NewUCXContext(nic *RNIC, cfg UCXConfig) *ucx.Context { return ucx.NewContext(nic, cfg) }

// UCXConnect wires two workers together.
func UCXConnect(a, b *ucx.Worker) (*ucx.Endpoint, *ucx.Endpoint) { return ucx.Connect(a, b) }

// --- Pitfalls toolkit (the paper's contribution) ---

// ODP modes: which sides register buffers with ODP (DefaultBench uses
// both).
const (
	ServerODP = core.ServerODP
	ClientODP = core.ClientODP
)

// BenchConfig parameterizes the Figure-3 micro-benchmark.
type BenchConfig = core.BenchConfig

// BenchResult is one micro-benchmark run's measurements.
type BenchResult = core.BenchResult

// DefaultBench returns the paper's §V configuration.
func DefaultBench() BenchConfig { return core.DefaultBench() }

// RunMicrobench executes the micro-benchmark once.
func RunMicrobench(cfg BenchConfig) *BenchResult { return core.RunMicrobench(cfg) }

// MeasureTimeout runs the Figure-2 wrong-LID probe: T_o for one C_ACK.
func MeasureTimeout(sys System, cack int, seed int64) Time {
	return core.MeasureTimeout(sys, cack, seed)
}

// DetectDamming scans a capture for timeout-scale request stalls.
func DetectDamming(c *capture.Capture, minStall Time) []core.DammingIncident {
	return core.DetectDamming(c, minStall)
}

// DetectFlood scans a capture for retransmission bursts.
func DetectFlood(c *capture.Capture, window Time, threshold int) []core.FloodIncident {
	return core.DetectFlood(c, window, threshold)
}

// DummyPinger is the §IX-A dummy-communication damming workaround
// (BenchConfig.DummyPing runs one).
type DummyPinger = core.DummyPinger

// SmallestRNRDelay is the smallest InfiniBand RNR timer encoding, the
// paper's first workaround.
const SmallestRNRDelay = core.SmallestRNRDelay

// --- Software reliability over Unreliable Datagram (§VIII-C) ---

// DefaultRPCConfig returns a 1 ms software timeout with 5 retries.
func DefaultRPCConfig() softrel.Config { return softrel.DefaultConfig() }

// NewRPCServer starts an RPC echo server on a node.
func NewRPCServer(nic *RNIC, cfg softrel.Config) *softrel.Server { return softrel.NewServer(nic, cfg) }

// NewRPCClient creates an RPC client on a node.
func NewRPCClient(nic *RNIC, cfg softrel.Config) *softrel.Client { return softrel.NewClient(nic, cfg) }

// --- Registration strategies (§VIII-A baselines) ---

// RegStrategy manages memory registrations for communication buffers.
type RegStrategy = regcache.Strategy

// Registration strategy constructors.
var (
	NewDirectPin    = regcache.NewDirectPin
	NewPinDownCache = regcache.NewPinDownCache
	NewBatchedDereg = regcache.NewBatchedDereg
	NewCopyPath     = regcache.NewCopyPath
	NewODPOnce      = regcache.NewODPOnce
)

// DefaultRegCosts calibrates the Frey & Alonso crossover near 256 KiB.
func DefaultRegCosts() regcache.Costs { return regcache.DefaultCosts() }

// RunRegWorkload replays a buffer-access trace against a strategy.
func RunRegWorkload(eng *Engine, s RegStrategy, trace []regcache.TraceOp) regcache.WorkloadResult {
	return regcache.RunWorkload(eng, s, trace)
}

// SyntheticTrace builds a hot/cold buffer-reuse trace for registration
// workload comparisons.
func SyntheticTrace(eng *Engine, nic *RNIC, nBuffers, size, n int, hotFraction float64) []regcache.TraceOp {
	return regcache.SyntheticTrace(eng, nic, nBuffers, size, n, hotFraction)
}

// --- perftest (ib_read_lat with ODP options) ---

// DefaultPerfConfig returns an ib_read_lat-like setup.
func DefaultPerfConfig() perftest.Config { return perftest.DefaultConfig() }

// ReadLat measures RDMA READ latency (ib_read_lat).
func ReadLat(cfg perftest.Config) perftest.LatencyResult { return perftest.ReadLat(cfg) }

// --- Statistics ---

// Summarize describes a sample (mean, std, percentiles).
func Summarize(xs []float64) stats.Summary { return stats.Summarize(xs) }
