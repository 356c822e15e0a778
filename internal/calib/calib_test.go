package calib

import (
	"testing"
	"time"
)

// These tests pin every calibration constant against the paper's measured
// figures (PAPER.md / section IV of the source paper) and era hardware
// envelopes. They are intentionally written as bounds, not equalities, so a
// re-calibration that stays consistent with the paper passes while a typo
// (a dropped <<20, a swapped unit) fails loudly.

const mb = 1 << 20

func mbs(bw int64) float64 { return float64(bw) / mb }

// streamEff is the interleaved-stream efficiency model used by internal/vfs:
// eff(k) = 1/(1+penalty*(k-1)).
func streamEff(penalty float64, k int) float64 {
	return 1 / (1 + penalty*float64(k-1))
}

func TestIBBandwidthInDDR4XEnvelope(t *testing.T) {
	// DDR 4X raw signalling is 16 Gb/s => 2 GB/s before 8b/10b coding; the
	// effective verbs bandwidth of the era's mvapich curves is 1.2-1.6 GB/s.
	if got := mbs(IBBandwidth); got < 1200 || got > 1600 {
		t.Fatalf("IBBandwidth = %.0f MB/s, outside DDR 4X envelope [1200,1600]", got)
	}
}

func TestIPoIBIsSocketFractionOfVerbs(t *testing.T) {
	// Paper section III-B: IPoIB "can only achieve a suboptimal performance"
	// — era measurements put it near 1/3 of verbs bandwidth.
	ratio := float64(IPoIBBandwidth) / float64(IBBandwidth)
	if ratio < 0.2 || ratio > 0.5 {
		t.Fatalf("IPoIB/IB ratio = %.2f, outside [0.2,0.5]", ratio)
	}
	if GigEBandwidth >= IPoIBBandwidth {
		t.Fatalf("GigE (%.0f MB/s) must be slower than IPoIB (%.0f MB/s)",
			mbs(GigEBandwidth), mbs(IPoIBBandwidth))
	}
}

func TestIBLatencyOrdering(t *testing.T) {
	// Verbs short-message latency is microseconds; the GigE maintenance
	// network is an order of magnitude worse; QP setup dwarfs both.
	if IBLatency < time.Microsecond || IBLatency > 10*time.Microsecond {
		t.Fatalf("IBLatency = %v, outside [1us,10us]", IBLatency)
	}
	if GigELatency < 10*IBLatency {
		t.Fatalf("GigE latency %v should be >= 10x IB latency %v", GigELatency, IBLatency)
	}
	if IBQPSetup < GigELatency || IBQPSetup > time.Millisecond {
		t.Fatalf("QP setup %v should exceed a GigE hop %v but stay sub-ms", IBQPSetup, GigELatency)
	}
}

func TestLocalDiskAnchorsFromPaper(t *testing.T) {
	// Anchor: BT.C.64 dumps 309 MB/node to local ext3 in 7.5 s => ~41 MB/s;
	// restart reads back at ~34 MB/s. Sequential rates must sit just above
	// those effective (stream-degraded) figures.
	if got := mbs(DiskWriteBandwidth); got < 41 || got > 60 {
		t.Fatalf("DiskWriteBandwidth = %.0f MB/s, outside [41,60]", got)
	}
	if got := mbs(DiskReadBandwidth); got < 30 || got > 45 {
		t.Fatalf("DiskReadBandwidth = %.0f MB/s, outside [30,45]", got)
	}
	if DiskReadBandwidth >= DiskWriteBandwidth {
		t.Fatalf("cold restart reads (%.0f) measured slower than journaled writes (%.0f) in the paper",
			mbs(DiskReadBandwidth), mbs(DiskWriteBandwidth))
	}
}

func TestExt3StreamPenaltyMatchesPaperRange(t *testing.T) {
	// The paper's 8-writers-per-node ext3 checkpoints land at 27-41 MB/s per
	// node; eff(8) applied to the sequential rate must stay in that window.
	got := mbs(DiskWriteBandwidth) * streamEff(DiskStreamPenalty, 8)
	if got < 27 || got > 41 {
		t.Fatalf("8-stream ext3 rate = %.1f MB/s, outside paper range [27,41]", got)
	}
}

func TestCheckpointDumpRateNearVmadump(t *testing.T) {
	// CkptPerPage + memcpy must land near vmadump-era dump throughput
	// (~500 MB/s): Phase 2 of a 170-310 MB node image then takes 0.4-0.8 s,
	// the paper's reported range.
	perPage := CkptPerPage.Seconds() + float64(PageSize)/float64(MemcpyBandwidth)
	rate := float64(PageSize) / perPage / mb
	if rate < 450 || rate > 600 {
		t.Fatalf("checkpoint dump rate = %.0f MB/s, outside vmadump envelope [450,600]", rate)
	}
	for _, img := range []float64{170, 310} {
		s := img * mb * perPage / PageSize
		if s < 0.3 || s > 0.9 {
			t.Fatalf("%v MB node image dumps in %.2f s, outside paper range [0.3,0.9]", img, s)
		}
	}
}

func TestRestartCostsDominatedByPerProcBase(t *testing.T) {
	// BLCR restore: the fixed fork/exec+vmadump cost per process is hundreds
	// of ms; per-page restore cost stays well under the memcpy cost so the
	// restart bandwidth remains disk- or memory-bound, not bookkeeping-bound.
	if RestartPerProcBase < 50*time.Millisecond || RestartPerProcBase > 500*time.Millisecond {
		t.Fatalf("RestartPerProcBase = %v, outside [50ms,500ms]", RestartPerProcBase)
	}
	pageFrac := float64(PageSize) / float64(MemcpyBandwidth)
	memcpyPerPage := time.Duration(pageFrac * float64(time.Second))
	if RestartPerPage > memcpyPerPage {
		t.Fatalf("RestartPerPage %v exceeds the page memcpy cost %v", RestartPerPage, memcpyPerPage)
	}
}

func TestMigrationDefaultsMatchPaperSectionIV(t *testing.T) {
	// "we fix the buffer pool to be 10 MB with chunk size of 1 MB ... in all
	// the experiments" — and the pool must hold a whole number of chunks.
	if DefaultBufferPool != 10*mb {
		t.Fatalf("DefaultBufferPool = %d, want 10 MB", DefaultBufferPool)
	}
	if DefaultChunkSize != 1*mb {
		t.Fatalf("DefaultChunkSize = %d, want 1 MB", DefaultChunkSize)
	}
	if DefaultBufferPool%DefaultChunkSize != 0 {
		t.Fatalf("pool %d not a multiple of chunk %d", DefaultBufferPool, DefaultChunkSize)
	}
	if PVFSStripeSize != DefaultChunkSize {
		t.Fatalf("PVFS stripe %d != 1 MB chunk %d (both are the paper's 1 MB)", PVFSStripeSize, DefaultChunkSize)
	}
}

func TestTestbedShapeConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if DirtyRatio <= 0 || DirtyRatio >= 1 {
		t.Fatalf("DirtyRatio = %v, outside (0,1)", DirtyRatio)
	}
}

func TestMPIRuntimeOrdering(t *testing.T) {
	// Sanity ordering of the MPI runtime constants: eager threshold is KBs,
	// per-message overhead is sub-microsecond, the Phase 4 resume cost is
	// dominated by serialized PMI re-exchange (the paper's ~1 s at 64 ranks).
	if EagerThreshold < 1<<10 || EagerThreshold > 64<<10 {
		t.Fatalf("EagerThreshold = %d, outside [1KB,64KB]", EagerThreshold)
	}
	if MPIPerMessageOverhead >= IBQPSetup {
		t.Fatal("per-message overhead must be far below QP setup")
	}
	resume64 := time.Duration(64) * PMIExchangePerRank
	if resume64 < 500*time.Millisecond || resume64 > 2*time.Second {
		t.Fatalf("64-rank PMI re-exchange = %v, outside the paper's ~1 s envelope", resume64)
	}
	if RendezvousBufSize <= 0 || EagerThreshold >= RendezvousBufSize {
		t.Fatal("rendezvous buffer must exceed the eager threshold")
	}
}

func TestStreamPenaltyModelMonotone(t *testing.T) {
	// Round-trip the efficiency model itself: monotone decreasing in k,
	// eff(1)=1, and the two calibrated penalties are positive and small.
	for _, pen := range []float64{DiskStreamPenalty, PVFSStreamPenalty} {
		if pen <= 0 || pen > 0.2 {
			t.Fatalf("stream penalty %v outside (0,0.2]", pen)
		}
		if streamEff(pen, 1) != 1 {
			t.Fatalf("eff(1) = %v, want 1", streamEff(pen, 1))
		}
		last := 1.0
		for k := 2; k <= 64; k *= 2 {
			e := streamEff(pen, k)
			if e >= last || e <= 0 {
				t.Fatalf("eff not strictly decreasing at k=%d: %v -> %v", k, last, e)
			}
			last = e
		}
	}
	if PVFSStreamPenalty >= DiskStreamPenalty {
		t.Fatal("PVFS (whole-stripe Trove scheduling) must degrade slower per stream than ext3")
	}
}
