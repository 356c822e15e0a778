// Package cr implements the baseline the paper compares against: MVAPICH2's
// coordinated Checkpoint/Restart framework. Every process of the job is
// checkpointed with BLCR to stable storage — the node-local ext3 file system
// or PVFS — and a restart reloads every image.
//
// The cycle mirrors the paper's phase decomposition for Fig. 7:
//
//	Job Stall   identical to migration Phase 1 (drain + teardown)
//	Checkpoint  every rank dumps its image to ext3 or PVFS (and syncs:
//	            a checkpoint that only exists in a failing node's page
//	            cache is worthless)
//	Resume      identical to migration Phase 4
//	Restart     optional for CR (only after a failure), measured from cold
//	            caches: every rank reloads and rebuilds its image
package cr

import (
	"errors"
	"fmt"

	"ibmig/internal/blcr"
	"ibmig/internal/cluster"
	"ibmig/internal/metrics"
	"ibmig/internal/mpi"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

// Target selects the checkpoint storage.
type Target int

// Storage targets.
const (
	// Ext3 writes each rank's image to its node's local file system.
	Ext3 Target = iota
	// PVFS writes all images to the shared parallel file system.
	PVFS
)

func (t Target) String() string {
	if t == PVFS {
		return "PVFS"
	}
	return "ext3"
}

// Runner executes Checkpoint/Restart cycles against a running job.
type Runner struct {
	C      *cluster.Cluster
	W      *mpi.World
	Target Target
	// Hash enables end-to-end image verification.
	Hash bool
	// Aggregate enables node-level write aggregation (the authors' companion
	// technique, cited as [15][16] in the paper): one dedicated writer per
	// node funnels all local checkpoint streams to storage sequentially, so
	// the device sees a single stream instead of one per process. Trades
	// serialized dump CPU for the elimination of inter-stream seeking.
	Aggregate bool

	// Verified reports whether the last restart reproduced every image
	// bit-identically (meaningful with Hash).
	Verified bool

	sums  map[int]uint64
	files map[int]string
	nodes map[int]string // node each rank occupied at checkpoint time
}

// NewRunner creates a CR runner for the job.
func NewRunner(c *cluster.Cluster, w *mpi.World, target Target, hash bool) *Runner {
	if target == PVFS && c.PVFS == nil {
		panic("cr: cluster has no PVFS")
	}
	return &Runner{C: c, W: w, Target: target, Hash: hash}
}

// ckptName is the checkpoint file for one rank.
func ckptName(rank int) string { return fmt.Sprintf("ckpt.%d", rank) }

// Checkpoint performs one coordinated checkpoint of the whole job, returning
// a report with the Job Stall, Checkpoint and Resume phases and the total
// data volume (Table I's CR column). On a storage error (failed disk,
// unreachable PVFS server) the job is still resumed — a failed checkpoint
// must never leave the application suspended — the runner's image set is
// invalidated (a half-written snapshot must not be restartable), and the
// first error is returned alongside the partial report.
func (r *Runner) Checkpoint(p *sim.Proc) (*metrics.Report, error) {
	rep := metrics.NewReport(fmt.Sprintf("CR(%s) checkpoint", r.Target))
	watch := metrics.NewStopwatch(rep, p.Now())
	r.sums = make(map[int]uint64)
	r.files = make(map[int]string)
	r.nodes = make(map[int]string)

	// Job Stall: identical machinery to migration Phase 1.
	s := r.W.BeginSuspend()
	s.WaitAllDrained(p)
	s.CompleteTeardown()
	s.WaitAllSuspended(p)
	watch.Lap(metrics.PhaseStall, p.Now())

	// Checkpoint: every rank's C/R thread dumps its image. In the default
	// mode all ranks on a node write concurrently (interleaving streams on
	// the device); with Aggregate, a per-node writer serializes them. The
	// engine is single-threaded, so the children can share firstErr without
	// locking.
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if r.Aggregate {
		byNode := make(map[string][]*mpi.Rank)
		var nodeOrder []string
		for _, rk := range r.W.Ranks() {
			if byNode[rk.Node()] == nil {
				nodeOrder = append(nodeOrder, rk.Node())
			}
			byNode[rk.Node()] = append(byNode[rk.Node()], rk)
		}
		wg := sim.NewWaitGroup(r.C.E)
		wg.Add(len(nodeOrder))
		for _, node := range nodeOrder {
			p.SpawnChild("cr.aggwriter."+node, func(cp *sim.Proc) {
				defer wg.Done()
				for _, rk := range byNode[node] {
					n, err := r.checkpointRank(cp, rk)
					rep.BytesMoved += n
					keep(err)
				}
			})
		}
		wg.Wait(p)
	} else {
		wg := sim.NewWaitGroup(r.C.E)
		ranks := r.W.Ranks()
		wg.Add(len(ranks))
		for _, rk := range ranks {
			p.SpawnChild(fmt.Sprintf("cr.ckpt.%d", rk.ID()), func(cp *sim.Proc) {
				defer wg.Done()
				n, err := r.checkpointRank(cp, rk)
				rep.BytesMoved += n
				keep(err)
			})
		}
		wg.Wait(p)
	}
	watch.Lap(metrics.PhaseCkpt, p.Now())

	// Resume: identical machinery to migration Phase 4 — even after an
	// error, so a failed checkpoint never leaves the job suspended.
	s.Resume()
	s.WaitAllResumed(p)
	watch.Lap(metrics.PhaseResume, p.Now())
	if firstErr != nil {
		// A partial image set must not be restartable.
		r.sums, r.files, r.nodes = nil, nil, nil
		return rep, firstErr
	}
	return rep, nil
}

// checkpointRank dumps one rank's image to the target storage (and syncs it
// on ext3 — a checkpoint that only exists in the page cache is worthless),
// returning the stream size.
func (r *Runner) checkpointRank(cp *sim.Proc, rk *mpi.Rank) (int64, error) {
	if c := obs.Get(r.C.E); c != nil {
		span := c.StartSpan(cp.Now(), fmt.Sprintf("cr.ckpt.rank%d", rk.ID()), rk.Node()+"/cr", 0)
		defer func() { c.EndSpan(cp.Now(), span) }()
	}
	if r.Hash {
		r.sums[rk.ID()] = rk.OS.Checksum()
	}
	name := ckptName(rk.ID())
	r.files[rk.ID()] = name
	r.nodes[rk.ID()] = rk.Node()
	var info *blcr.ImageInfo
	var err error
	if r.Target == Ext3 {
		f := r.C.Node(rk.Node()).FS.Create(cp, name)
		info, err = blcr.Checkpoint(cp, rk.OS, nil, blcr.FileSink{F: f}, blcr.Options{Hash: r.Hash})
		if err == nil {
			err = f.Sync(cp)
		}
		f.Close()
	} else {
		h := r.C.PVFS.Create(cp, rk.Node(), name)
		info, err = blcr.Checkpoint(cp, rk.OS, nil, blcr.FileSink{F: h}, blcr.Options{Hash: r.Hash})
		h.Close()
	}
	if err != nil {
		return 0, fmt.Errorf("cr: checkpoint rank %d: %w", rk.ID(), err)
	}
	return info.Bytes, nil
}

// Restart measures restarting the whole job from the last checkpoint, as
// after a failure: caches are cold and every rank reloads its image. The
// restored processes are adopted into per-node scratch tables (the running
// job is not disturbed — this is the offline restart-cost measurement the
// paper includes "to complement the results").
func (r *Runner) Restart(p *sim.Proc) sim.Duration {
	if r.files == nil {
		panic("cr: Restart before Checkpoint")
	}
	// Ranks may live on spare nodes after a migration; work from their
	// actual placement.
	scratch := make(map[string]*proc.Table)
	for _, rk := range r.W.Ranks() {
		node := rk.Node()
		if scratch[node] == nil {
			scratch[node] = proc.NewTable(node)
			if r.Target == Ext3 {
				r.C.Node(node).FS.DropCaches()
			}
		}
	}
	r.Verified = true
	start := p.Now()
	wg := sim.NewWaitGroup(r.C.E)
	ranks := r.W.Ranks()
	wg.Add(len(ranks))
	for _, rk := range ranks {
		p.SpawnChild(fmt.Sprintf("cr.restart.%d", rk.ID()), func(rp *sim.Proc) {
			defer wg.Done()
			node := rk.Node()
			if c := obs.Get(r.C.E); c != nil {
				span := c.StartSpan(rp.Now(), fmt.Sprintf("cr.restart.rank%d", rk.ID()), node+"/cr", 0)
				defer func() { c.EndSpan(rp.Now(), span) }()
			}
			var src blcr.Source
			if r.Target == Ext3 {
				f, err := r.C.Node(node).FS.Open(rp, r.files[rk.ID()])
				if err != nil {
					panic("cr: " + err.Error())
				}
				defer f.Close()
				src = blcr.FileSource{F: f}
			} else {
				h, err := r.C.PVFS.Open(rp, node, r.files[rk.ID()])
				if err != nil {
					panic("cr: " + err.Error())
				}
				defer h.Close()
				src = blcr.FileSource{F: h}
			}
			restored, err := blcr.Restart(rp, src, scratch[node], blcr.RestartOptions{Verify: r.Hash})
			if err != nil {
				panic(fmt.Sprintf("cr: restart rank %d: %v", rk.ID(), err))
			}
			if r.Hash && restored.Checksum() != r.sums[rk.ID()] {
				r.Verified = false
			}
		})
	}
	wg.Wait(p)
	// The restored processes are an offline measurement: verified above, then
	// consumed. Clearing the scratch tables releases their extent trees —
	// otherwise every measured restart would leak a full job image's worth of
	// live extents.
	for _, tbl := range scratch {
		tbl.Clear()
	}
	// Images are verified and consumed: close the reclamation epoch so extent
	// nodes retired while streaming them become reusable.
	payload.AdvanceEpoch()
	return p.Now().Sub(start)
}

// RestartInPlace restores the whole job from its last checkpoint into the
// live cluster — the CR-fallback path the migration framework takes when a
// node dies mid-migration and the proactive race is lost. placement overrides
// the hosting node for ranks whose current node can no longer run them (dead
// node, failed adapter); ranks absent from the map restore onto their current
// node. The old process incarnations are removed first, each restored process
// is adopted with its original PID, and the MPI rank is rebound to its
// (possibly new) node. The job must be globally suspended by the caller.
// Caches are dropped before reading (ext3): a post-failure restart is cold.
func (r *Runner) RestartInPlace(p *sim.Proc, placement map[int]string) error {
	if r.files == nil {
		return errors.New("cr: RestartInPlace before Checkpoint")
	}
	ranks := r.W.Ranks()
	dest := make(map[int]string, len(ranks))
	for _, rk := range ranks {
		node := rk.Node()
		if over, ok := placement[rk.ID()]; ok {
			node = over
		}
		if !r.C.NodeAlive(node) {
			return fmt.Errorf("cr: rank %d placed on dead node %s", rk.ID(), node)
		}
		if r.Target == Ext3 {
			// An ext3 image is only reachable from the node whose disk holds
			// it; a dead node takes its local checkpoints with it.
			if home := r.nodes[rk.ID()]; home != node {
				return fmt.Errorf("cr: ext3 image of rank %d is on %s, unreachable from %s", rk.ID(), home, node)
			}
		}
		dest[rk.ID()] = node
	}
	// Remove the old incarnations before adopting restored ones: PIDs are
	// preserved across restart, and some tables may already be empty (crashed
	// node) or hold partially migrated processes.
	for _, rk := range ranks {
		if n := r.C.Node(rk.Node()); n != nil {
			n.Procs.Remove(rk.OS.PID)
		}
	}
	if r.Target == Ext3 {
		dropped := make(map[string]bool)
		for _, node := range dest {
			if !dropped[node] {
				dropped[node] = true
				r.C.Node(node).FS.DropCaches()
			}
		}
	}
	r.Verified = true
	var firstErr error
	wg := sim.NewWaitGroup(r.C.E)
	wg.Add(len(ranks))
	for _, rk := range ranks {
		p.SpawnChild(fmt.Sprintf("cr.fallback.%d", rk.ID()), func(rp *sim.Proc) {
			defer wg.Done()
			node := dest[rk.ID()]
			if c := obs.Get(r.C.E); c != nil {
				span := c.StartSpan(rp.Now(), fmt.Sprintf("cr.fallback.rank%d", rk.ID()), node+"/cr", 0)
				defer func() { c.EndSpan(rp.Now(), span) }()
			}
			var src blcr.Source
			if r.Target == Ext3 {
				f, err := r.C.Node(node).FS.Open(rp, r.files[rk.ID()])
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				defer f.Close()
				src = blcr.FileSource{F: f}
			} else {
				h, err := r.C.PVFS.Open(rp, node, r.files[rk.ID()])
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				defer h.Close()
				src = blcr.FileSource{F: h}
			}
			restored, err := blcr.Restart(rp, src, r.C.Node(node).Procs, blcr.RestartOptions{Verify: r.Hash})
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cr: restart rank %d on %s: %w", rk.ID(), node, err)
				}
				return
			}
			// The node may have died while the image streamed in; rebinding the
			// rank onto it would wedge the resume against a dead adapter.
			if !r.C.NodeAlive(node) {
				if firstErr == nil {
					firstErr = fmt.Errorf("cr: node %s died during restart of rank %d", node, rk.ID())
				}
				return
			}
			if r.Hash && restored.Checksum() != r.sums[rk.ID()] {
				r.Verified = false
			}
			r.W.Rebind(rk.ID(), node, restored)
		})
	}
	wg.Wait(p)
	return firstErr
}

// Cleanup removes the checkpoint images from storage, returning their
// extent nodes to the payload arena, and closes the reclamation epoch. Call
// it once the images are no longer needed — the job completed, or a newer
// checkpoint superseded them. The image set is consumed: a later Restart
// must Checkpoint again first. Pure metadata operation, no simulated cost.
func (r *Runner) Cleanup() {
	for id, name := range r.files {
		if r.Target == Ext3 {
			r.C.Node(r.nodes[id]).FS.Remove(name)
		} else {
			r.C.PVFS.Remove(name)
		}
	}
	r.sums, r.files, r.nodes = nil, nil, nil
	payload.AdvanceEpoch()
}

// FullCycle checkpoints and then measures the restart, returning the
// combined four-phase report (the paper's "complete CR cycle").
func (r *Runner) FullCycle(p *sim.Proc) *metrics.Report {
	rep, err := r.Checkpoint(p)
	if err != nil {
		panic("cr: " + err.Error())
	}
	rep.Label = fmt.Sprintf("CR(%s) full cycle", r.Target)
	rep.Add(metrics.PhaseRestart, r.Restart(p))
	return rep
}
