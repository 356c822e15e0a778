package main

import (
	"fmt"
	"runtime"
	"time"

	"ibmig/internal/blcr"
	"ibmig/internal/fleet"
	"ibmig/internal/ftb"
	"ibmig/internal/gige"
	"ibmig/internal/ib"
	"ibmig/internal/mem"
	"ibmig/internal/mpi"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
	"ibmig/internal/vfs"
)

// Layer probes time the public calls each layer's in-package benchmark
// makes, at a fixed iteration count so every traced run does the same work.

func mustRun(e *sim.Engine) {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timed runs fn, which performs n operations, and returns host ns and heap
// allocations per operation.
func timed(n int, fn func()) (nsOp, allocsOp float64) {
	runtime.GC()
	m0 := mallocs()
	t := time.Now()
	fn()
	el := time.Since(t)
	return float64(el.Nanoseconds()) / float64(n), float64(mallocs()-m0) / float64(n)
}

func runProbes() map[string]float64 {
	m := map[string]float64{}
	m["sim.dispatch_ns"] = probeDispatch(200000)
	m["sim.pingpong_ns"] = probePingPong(100000)
	m["sim.batch256_ns"], m["sim.batch256_allocs"] = probeBatch256(200)
	m["mpi.ring_sendrecv16_ns"] = probeRing(1000)
	m["mpi.suspend_resume16_us"] = probeSuspendResume(40) / 1e3
	m["ib.rdma_read_1MB_ns"] = probeRDMARead(2000)
	m["ib.post_send_4KB_ns"] = probePostSend(20000)
	m["blcr.ckpt_restart_32MB_ms"] = probeBLCR(10) / 1e6
	m["vfs.local_ckpt_8MB_us"] = probeLocalCkpt(200) / 1e3
	m["vfs.pvfs_write_8MB_us"] = probePVFS(200) / 1e3
	m["ftb.route64_us"] = probeFTB(200) / 1e3
	m["payload.checksum_cold_MBps"] = probeChecksumCold(64)
	m["payload.tree_splice_ns"], m["payload.tree_splice_allocs"] = probeTreeSplice(20000)
	m["obs.span_enabled_ns"], m["obs.span_disabled_ns"] = probeObs(200000)
	m["fleet.month_arm_ms"] = probeFleetArm() / 1e6
	return m
}

func probeDispatch(n int) float64 {
	e := sim.NewEngine(1)
	e.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

func probePingPong(n int) float64 {
	e := sim.NewEngine(1)
	q1 := sim.NewQueue[int](e, "q1", 0)
	q2 := sim.NewQueue[int](e, "q2", 0)
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q1.Send(p, i)
			q2.Recv(p)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q1.Recv(p)
			q2.Send(p, i)
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

// probeBatch256 spawns 256 processes that all wake at one instant, n times,
// after 32 untimed batches have filled the kernel's process pool.
func probeBatch256(n int) (nsOp, allocsOp float64) {
	const fanout, warm = 256, 32
	e := sim.NewEngine(1)
	wg := sim.NewWaitGroup(e)
	worker := func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		wg.Done()
	}
	var t0 time.Time
	var m0 uint64
	var el time.Duration
	var allocs uint64
	e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < warm+n; i++ {
			if i == warm {
				m0, t0 = mallocs(), time.Now()
			}
			wg.Add(fanout)
			for w := 0; w < fanout; w++ {
				p.SpawnChild("w", worker)
			}
			wg.Wait(p)
		}
		el, allocs = time.Since(t0), mallocs()-m0
	})
	mustRun(e)
	e.Shutdown()
	return float64(el.Nanoseconds()) / float64(n), float64(allocs) / float64(n)
}

// mpiWorld places 16 ranks on 4 nodes.
func mpiWorld() (*sim.Engine, *mpi.World) {
	e := sim.NewEngine(42)
	fab := ib.NewFabric(e, ib.Config{})
	placement := make([]string, 16)
	for i := range placement {
		placement[i] = fmt.Sprintf("n%02d", i/4)
	}
	for i := 0; i < 4; i++ {
		fab.AttachHCA(fmt.Sprintf("n%02d", i))
	}
	return e, mpi.NewWorld(e, fab, placement, mpi.Config{})
}

func probeRing(n int) float64 {
	e, w := mpiWorld()
	w.Start(func(r *mpi.Rank) {
		size := r.Size()
		for i := 0; i < n; i++ {
			r.Sendrecv((r.ID()+1)%size, i%1000, 64<<10, (r.ID()-1+size)%size, i%1000)
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	ns, _ := timed(n, func() { mustRun(e) })
	e.Shutdown()
	return ns
}

// probeSuspendResume times drain/teardown/rebuild cycles of 16 ranks that
// compute and exchange between cycles.
func probeSuspendResume(n int) float64 {
	e, w := mpiWorld()
	w.Start(func(r *mpi.Rank) {
		size := r.Size()
		for i := 0; !w.Done(); i++ {
			r.Compute(time.Millisecond)
			r.Sendrecv((r.ID()+1)%size, i%1000, 8<<10, (r.ID()-1+size)%size, i%1000)
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) {
		w.WaitReady(p)
		for i := 0; i < n; i++ {
			p.Sleep(2 * time.Millisecond)
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			s.Resume()
			s.WaitAllResumed(p)
		}
		e.Stop()
	})
	ns, _ := timed(n, func() { mustRun(e) })
	e.Shutdown()
	return ns
}

func probeRDMARead(n int) float64 {
	e := sim.NewEngine(1)
	f := ib.NewFabric(e, ib.Config{})
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	region := mem.NewRegionWith(payload.Synth(1, 0, 1<<20))
	e.Spawn("bench", func(p *sim.Proc) {
		qa, _ := ib.ConnectQP(p, a, b)
		mr := b.RegisterMR(p, region)
		for i := 0; i < n; i++ {
			if _, err := qa.RDMARead(p, mr.RKey(), 0, 1<<20); err != nil {
				panic(err)
			}
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

func probePostSend(n int) float64 {
	e := sim.NewEngine(1)
	f := ib.NewFabric(e, ib.Config{})
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	e.Spawn("bench", func(p *sim.Proc) {
		qa, qb := ib.ConnectQP(p, a, b)
		for i := 0; i < n; i++ {
			if err := qa.PostSend(ib.Message{Data: payload.Synth(1, 0, 4096)}); err != nil {
				panic(err)
			}
			if _, ok := qb.Recv(p); !ok {
				panic("ib probe: recv failed")
			}
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

// probeBLCR checkpoints a 32 MB process image to memory and restarts it.
func probeBLCR(n int) float64 {
	e := sim.NewEngine(1)
	pr := proc.NewTable("a").Spawn("app", 0, []proc.SegmentSpec{
		{Name: "text", VAddr: 0x400000, Size: 2 << 20, Seed: 1},
		{Name: "heap", VAddr: 0x20000000, Size: 30 << 20, Seed: 2},
	})
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sink := &blcr.BufferSink{}
			if _, err := blcr.Checkpoint(p, pr, nil, sink, blcr.Options{}); err != nil {
				panic(err)
			}
			dst := proc.NewTable(fmt.Sprintf("b%d", i))
			if _, err := blcr.Restart(p, &blcr.BufferSource{Buf: sink.Buf}, dst, blcr.RestartOptions{}); err != nil {
				panic(err)
			}
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

// probeLocalCkpt is a checkpoint's write+sync pattern, 8 MB per op.
func probeLocalCkpt(n int) float64 {
	e := sim.NewEngine(1)
	fs := vfs.NewFileSystem(e, "n0", vfs.NewDisk(e, "d0", vfs.DiskConfig{}), vfs.FSConfig{})
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f := fs.Create(p, fmt.Sprintf("ckpt.%d", i%4))
			f.Append(p, payload.Synth(uint64(i), 0, 8<<20))
			f.Sync(p)
			f.Close()
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

// probePVFS is an 8 MB write striped over 4 PVFS servers.
func probePVFS(n int) float64 {
	e := sim.NewEngine(1)
	fab := ib.NewFabric(e, ib.Config{})
	servers := []string{"io0", "io1", "io2", "io3"}
	for _, s := range servers {
		fab.AttachHCA(s)
	}
	fab.AttachHCA("client")
	pv := vfs.NewPVFS(e, fab, servers, 0, vfs.DiskConfig{})
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			h := pv.Create(p, "client", fmt.Sprintf("f%d", i%4))
			h.Append(p, payload.Synth(uint64(i), 0, 8<<20))
			h.Close()
		}
	})
	ns, _ := timed(n, func() { mustRun(e) })
	return ns
}

// probeFTB publishes one event to 64 agents with one subscriber each and
// lets it propagate.
func probeFTB(n int) float64 {
	e := sim.NewEngine(1)
	net := gige.NewNetwork(e, gige.Config{})
	var nodes []string
	for i := 0; i < 64; i++ {
		node := fmt.Sprintf("n%02d", i)
		net.Attach(node)
		nodes = append(nodes, node)
	}
	bp := ftb.Deploy(e, net, nodes, 4)
	var last *ftb.Subscription
	for _, node := range nodes {
		last = bp.Connect(node, "c"+node).Subscribe("", "")
	}
	pub := bp.Connect(nodes[0], "pub")
	e.Spawn("bench", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // tree assembly
		for i := 0; i < n; i++ {
			pub.Publish(p, ftb.Event{Namespace: "ns", Name: "E"})
			p.Sleep(5 * time.Millisecond)
		}
		e.Stop()
	})
	ns, _ := timed(n, func() { mustRun(e) })
	e.Shutdown()
	if got := last.Pending(); got != n {
		panic(fmt.Sprintf("ftb probe: delivered %d/%d to the last agent", got, n))
	}
	return ns
}

// probeChecksumCold checksums n distinct 1 MB synthetic buffers with the
// memo cache emptied, and returns MB/s.
func probeChecksumCold(n int) float64 {
	payload.ResetChecksumCache()
	ns, _ := timed(n, func() {
		for i := 0; i < n; i++ {
			_ = payload.Synth(uint64(i)+1, 0, 1<<20).Checksum()
		}
	})
	return 1e9 / ns
}

// probeTreeSplice overwrites 64 KB ranges of a 64 MB extent tree.
func probeTreeSplice(n int) (nsOp, allocsOp float64) {
	const size, chunk = 64 << 20, 1 << 16
	var tr payload.Tree
	tr.Splice(0, 0, payload.Synth(1, 0, size))
	return timed(n, func() {
		for i := 0; i < n; i++ {
			off := int64(i%(size/chunk)) * chunk
			tr.Splice(off, chunk, payload.Synth(uint64(i)+2, off, chunk))
		}
	})
}

// probeObs times one span on an enabled collector and the instrumentation
// calls a site makes with none attached.
func probeObs(n int) (enabled, disabled float64) {
	e := sim.NewEngine(1)
	c := obs.Enable(e)
	enabled, _ = timed(n, func() {
		for i := 0; i < n; i++ {
			id := c.StartSpan(sim.Time(i), "x", "a", 0)
			c.EndSpan(sim.Time(i+1), id)
		}
	})
	e.Shutdown()
	off := sim.NewEngine(1)
	disabled, _ = timed(n, func() {
		for i := 0; i < n; i++ {
			c := obs.Get(off)
			id := c.StartSpan(off.Now(), "x", "a", 0)
			c.EndSpan(off.Now(), id)
			c.Hist("h", obs.LatencyBucketsUS).Observe(1)
			c.Usage(off.Now(), "dev", 1, 2)
		}
	})
	off.Shutdown()
	return enabled, disabled
}

// probeFleetArm runs one arm of the fleet economics campaign: 1,000 nodes,
// 200 jobs, 30 simulated days, EASY backfill.
func probeFleetArm() float64 {
	cfg := fleet.Config{
		Nodes:    1000,
		RackSize: 10,
		NodeMTBF: 4 * 24 * time.Hour,
		Horizon:  30 * 24 * time.Hour,
		Jobs:     200,
		MaxWidth: 64,
		MeanWork: 120 * time.Hour,
		Seed:     1,
		Policy:   fleet.PolicyBackfill,
	}
	ns, _ := timed(1, func() { fleet.New(sim.NewEngine(cfg.Seed), cfg).Run() })
	return ns
}
