package cluster

import (
	"fmt"
	"testing"

	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// TestPVFSAggregateMatchesPaperAnchor measures the engine's PVFS write
// throughput at the paper's checkpoint shape: 64 client streams (8 per
// compute node) each write a ~38 MB image to the default 4-server PVFS at
// once. The paper's BT.C.64 PVFS checkpoint moves 2470.4 MB in 23.4 s, about
// 106 MB/s aggregate; the engine must land in [95, 125] MB/s.
func TestPVFSAggregateMatchesPaperAnchor(t *testing.T) {
	const (
		clients = 64
		image   = 38 << 20
		chunk   = 1 << 20
	)
	e := sim.NewEngine(1)
	defer e.Shutdown()
	c := New(e, Config{PVFSServers: 4})
	wg := sim.NewWaitGroup(e)
	wg.Add(clients)
	var end sim.Time
	for i := 0; i < clients; i++ {
		i := i
		node := c.Compute[i%len(c.Compute)].Name
		e.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			defer wg.Done()
			h := c.PVFS.Create(p, node, fmt.Sprintf("ckpt.%d", i))
			defer h.Close()
			for off := int64(0); off < image; off += chunk {
				if err := h.Append(p, payload.Synth(uint64(i), off, chunk)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	e.Spawn("timer", func(p *sim.Proc) {
		wg.Wait(p)
		end = p.Now()
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("clients never finished")
	}
	aggregate := float64(clients*image) / (1 << 20) / sim.Duration(end).Seconds()
	t.Logf("64-client PVFS write: %d MB in %.2f s = %.1f MB/s", clients*image>>20, sim.Duration(end).Seconds(), aggregate)
	if aggregate < 95 || aggregate > 125 {
		t.Fatalf("PVFS 64-client aggregate = %.1f MB/s, outside [95,125] (paper: ~106)", aggregate)
	}
}
