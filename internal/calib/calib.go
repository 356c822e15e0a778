// Package calib centralizes every calibration constant in the simulation.
//
// The paper's testbed: 8 compute nodes + spares, each with two Intel Xeon
// E5345 2.33 GHz quad-cores (8 cores/node), Mellanox MT25208 DDR InfiniBand
// HCAs, a GigE maintenance network carrying the FTB, RedHat EL5, MVAPICH2 1.4,
// BLCR 0.8.0, PVFS 2.8.1 (4 combined data+metadata servers, 1 MB stripes).
//
// Each constant below is annotated with the measurement in the paper (or the
// era-appropriate hardware datum) that anchors it. The goal is shape fidelity,
// not absolute-number fidelity: who wins, by roughly what factor, and where
// the cost lives.
package calib

import "time"

// ---------------------------------------------------------------------------
// InfiniBand (Mellanox MT25208 DDR, 4X)
// ---------------------------------------------------------------------------

const (
	// IBBandwidth is the effective large-message RDMA bandwidth of a DDR 4X
	// link. Raw signalling is 16 Gb/s; 8b/10b coding and protocol overheads
	// leave ~1.4 GB/s, consistent with mvapich bandwidth curves of the era.
	IBBandwidth int64 = 1400 << 20 // bytes/sec

	// IBLatency is the one-way short-message latency (~2 us for DDR verbs).
	IBLatency = 2 * time.Microsecond

	// IBRDMAReadRequest is the extra cost of issuing an RDMA Read work
	// request (request packet serialization at the requester).
	IBRDMAReadRequest = 1 * time.Microsecond

	// IBQPSetup is the cost of creating and transitioning one reliable
	// connection queue pair to RTS, including the address handshake over the
	// out-of-band channel. MVAPICH2 endpoint re-establishment during the
	// Resume phase is dominated by this, times the number of peers.
	IBQPSetup = 120 * time.Microsecond

	// IBMRRegisterBase and IBMRRegisterPerPage model ibv_reg_mr: pinning has
	// a fixed syscall cost plus a per-page cost.
	IBMRRegisterBase    = 30 * time.Microsecond
	IBMRRegisterPerPage = 250 * time.Nanosecond
)

// ---------------------------------------------------------------------------
// GigE maintenance network (FTB traffic, paper section IV)
// ---------------------------------------------------------------------------

const (
	GigEBandwidth int64 = 110 << 20 // bytes/sec effective TCP goodput
	GigELatency         = 60 * time.Microsecond
	// GigEPerMessageCPU models the kernel TCP stack memory-copy overhead the
	// paper cites as the reason socket-based staging loses to RDMA.
	GigEPerMessageCPU = 15 * time.Microsecond
)

// IPoIBBandwidth is the effective socket throughput over IPoIB: the paper
// (section III-B) notes IPoIB "can only achieve a suboptimal performance
// because it still follows the memory-copy based socket protocol". Era
// measurements put IPoIB at roughly 1/3 of verbs bandwidth.
const IPoIBBandwidth int64 = 450 << 20

// ---------------------------------------------------------------------------
// Node: CPU and memory system (Xeon E5345 era)
// ---------------------------------------------------------------------------

const (
	PageSize = 4096

	// MemcpyBandwidth is per-core copy bandwidth (FSB-limited Clovertown).
	MemcpyBandwidth int64 = 2500 << 20
)

// ---------------------------------------------------------------------------
// BLCR checkpoint/restart
// ---------------------------------------------------------------------------

const (
	// CkptFreezePerProc: stopping threads, walking the vm map (cr_checkpoint
	// entry latency per process).
	CkptFreezePerProc = 6 * time.Millisecond

	// CkptPerPage: per-page kernel bookkeeping while dumping (on top of the
	// memcpy cost of moving the page's bytes). Anchor: vmadump-era dump
	// throughput of ~500 MB/s puts Phase 2 at 0.4-0.8 s for 170-310 MB, the
	// paper's reported range.
	CkptPerPage = 6 * time.Microsecond

	// RestartPerProcBase: fork/exec+vmadump restore fixed cost per process,
	// including /proc surgery and thread re-creation.
	RestartPerProcBase = 140 * time.Millisecond

	// RestartPerPage: per-page fault + map cost during image restore (on top
	// of memcpy of the page's bytes).
	RestartPerPage = 220 * time.Nanosecond
)

// ---------------------------------------------------------------------------
// Storage: local ext3
// ---------------------------------------------------------------------------

const (
	// DiskWriteBandwidth: sustained sequential write of an era SATA disk with
	// ext3 ordered journaling. Anchor: BT.C.64 dumps 2470.4 MB across 8 nodes
	// (309 MB/node) to local ext3 in 7.5 s => ~41 MB/s effective.
	DiskWriteBandwidth int64 = 46 << 20

	// DiskReadBandwidth: cold sequential read effective rate during restart.
	// Anchor: BT.C.64 restart from ext3 in 9.1 s => ~34 MB/s/node.
	DiskReadBandwidth int64 = 38 << 20

	// DiskOpOverhead: per-file open/close/fsync fixed cost.
	DiskOpOverhead = 8 * time.Millisecond

	// DiskStreamPenalty degrades disk efficiency when k streams interleave:
	// eff = 1 / (1 + DiskStreamPenalty*(k-1)). Anchor for node-local ext3:
	// 8 concurrent per-process checkpoint writers reach ~27-41 MB/s/node in
	// the paper (LU/BT ext3 checkpoints) — eff(8) ≈ 0.77 of the 46 MB/s
	// sequential rate gives penalty 0.044.
	DiskStreamPenalty = 0.044

	// PVFSStreamPenalty is the per-stream penalty on PVFS server disks,
	// which see every client (a striped file keeps all spindles busy) but
	// schedule whole 1 MB stripes through Trove. Anchor: 64 clients yield
	// ~110 MB/s aggregate over 4 servers (BT.C.64 PVFS checkpoint: 2470.4 MB
	// in 23.4 s) — eff(64) = 0.60 gives penalty 0.0106. The cluster
	// package's TestPVFSAggregateMatchesPaperAnchor measures the anchor on
	// the engine.
	PVFSStreamPenalty = 0.0106

	// PageCachePerNode is the memory available for the page cache; writes go
	// to cache at memcpy speed until the dirty limit, then throttle to disk.
	PageCachePerNode int64 = 4 << 30

	// DirtyRatio caps dirty page-cache bytes (Linux vm.dirty_ratio ~ 40% of
	// cache here).
	DirtyRatio = 0.4
)

// ---------------------------------------------------------------------------
// PVFS (4 servers, 1 MB stripe, InfiniBand transport)
// ---------------------------------------------------------------------------

const (
	PVFSStripeSize   = 1 << 20
	PVFSMetaOpCost   = 300 * time.Microsecond
	PVFSPerStripeCPU = 40 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Migration framework defaults (paper section IV: "we fix the buffer pool to
// be 10 MB with chunk size of 1 MB ... in all the experiments")
// ---------------------------------------------------------------------------

const (
	DefaultBufferPool = 10 << 20
	DefaultChunkSize  = 1 << 20
)

// ---------------------------------------------------------------------------
// MPI runtime
// ---------------------------------------------------------------------------

const (
	// EagerThreshold: messages at or below go through the eager path.
	EagerThreshold = 8 << 10

	// MPIPerMessageOverhead: library tag-matching and posting overhead.
	MPIPerMessageOverhead = 600 * time.Nanosecond

	// DrainRoundCost: one round of the in-flight message drain protocol
	// (flush marker exchange) per connection.
	DrainRoundCost = 30 * time.Microsecond

	// TeardownPerConn: releasing a QP and invalidating cached rkeys.
	TeardownPerConn = 25 * time.Microsecond

	// MigrationBarrierCost: entering/leaving the migration barrier.
	MigrationBarrierCost = 2 * time.Millisecond

	// PMIExchangePerRank is the per-rank cost of re-exchanging endpoint
	// information through the central job-launch coordinator when
	// communication endpoints are re-established (Phase 4 / Resume). The
	// coordinator serializes these, which is why the paper's Resume phase
	// sits near a second at 64 ranks while staying "relatively constant for
	// a given task scale".
	PMIExchangePerRank = 12 * time.Millisecond

	// RendezvousBufSize is the per-connection registered buffer whose remote
	// key peers cache (and which must be revoked before checkpointing).
	RendezvousBufSize int64 = 1 << 20
)
