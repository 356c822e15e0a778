package ib

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ibmig/internal/mem"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

func TestFailedHCAErrorsAllVerbs(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	e.Spawn("main", func(p *sim.Proc) {
		qa, _ := ConnectQP(p, a, b)
		reg := mem.NewRegion(1<<20, 7)
		mr := b.RegisterMR(p, reg)
		rkey := mr.RKey()
		b.Fail()
		if !b.Failed() {
			t.Error("Failed() false after Fail()")
		}
		if err := qa.Send(p, Message{Data: payload.Synth(1, 0, 1024)}); !errors.Is(err, ErrHCADown) {
			t.Errorf("Send err = %v, want ErrHCADown", err)
		}
		if err := qa.PostSend(Message{MetaSize: 64}); !errors.Is(err, ErrHCADown) {
			t.Errorf("PostSend err = %v, want ErrHCADown", err)
		}
		if _, err := qa.RDMARead(p, rkey, 0, 1024); !errors.Is(err, ErrHCADown) {
			t.Errorf("RDMARead err = %v, want ErrHCADown", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailWakesBlockedReceiver(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	woke := false
	e.Spawn("main", func(p *sim.Proc) {
		_, qb := ConnectQP(p, a, b)
		p.SpawnChild("recv", func(rp *sim.Proc) {
			if _, ok := qb.Recv(rp); ok {
				t.Error("Recv delivered a message from a dead fabric")
			}
			woke = true
		})
		p.Sleep(10 * time.Millisecond)
		b.Fail()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("blocked Recv never woke after HCA failure")
	}
}

func TestInFlightSendErrorsOnFailure(t *testing.T) {
	e, f := testFabric(t) // 1 MB/s: a 1 MB Send is in flight for ~2 s
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	var sendErr error
	returned := false
	e.Spawn("main", func(p *sim.Proc) {
		qa, qb := ConnectQP(p, a, b)
		p.SpawnChild("sink", func(rp *sim.Proc) {
			for {
				if _, ok := qb.Recv(rp); !ok {
					return
				}
			}
		})
		p.SpawnChild("killer", func(kp *sim.Proc) {
			kp.Sleep(100 * time.Millisecond)
			b.Fail()
		})
		sendErr = qa.Send(p, Message{Data: payload.Synth(3, 0, 1<<20)})
		returned = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("Send hung across an HCA failure")
	}
	if !errors.Is(sendErr, ErrHCADown) {
		t.Fatalf("in-flight Send err = %v, want ErrHCADown", sendErr)
	}
}

func TestInFlightRDMAReadErrorsOnResponderFailure(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	var readErr error
	returned := false
	e.Spawn("main", func(p *sim.Proc) {
		qa, _ := ConnectQP(p, a, b)
		mr := b.RegisterMR(p, mem.NewRegion(1<<20, 9))
		p.SpawnChild("killer", func(kp *sim.Proc) {
			kp.Sleep(100 * time.Millisecond)
			b.Fail()
		})
		_, readErr = qa.RDMARead(p, mr.RKey(), 0, 1<<20)
		returned = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("RDMARead hung across an HCA failure")
	}
	if !errors.Is(readErr, ErrHCADown) {
		t.Fatalf("in-flight RDMARead err = %v, want ErrHCADown", readErr)
	}
}

func TestConnectQPToFailedHCAComesUpBroken(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	e.Spawn("main", func(p *sim.Proc) {
		b.Fail()
		qa, _ := ConnectQP(p, a, b)
		if err := qa.PostSend(Message{MetaSize: 64}); err == nil {
			t.Error("PostSend to a failed HCA succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailInvalidatesRegisteredMRs(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	e.Spawn("main", func(p *sim.Proc) {
		qa, _ := ConnectQP(p, a, b)
		mr := b.RegisterMR(p, mem.NewRegion(1<<20, 5))
		b.Fail()
		if mr.Valid() {
			t.Error("MR still valid after owning HCA failed")
		}
		if _, err := qa.RDMARead(p, mr.RKey(), 0, 1024); err == nil {
			t.Error("RDMARead against a failed HCA's MR succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailIsIdempotent(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.AttachHCA("a"), f.AttachHCA("b")
	e.Spawn("main", func(p *sim.Proc) {
		ConnectQP(p, a, b)
		b.Fail()
		b.Fail() // second failure of the same adapter is a no-op
		if !b.Failed() {
			t.Error("Failed() false after double Fail()")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHCADropsClosedPairs runs a 16-rank mesh, four ranks to each of four
// adapters, through three suspend cycles the way the MPI layer does: every
// rank pair connects, then each pair's lower rank closes its endpoint, then
// the higher one does, and the pairs connect again. The second cycle fails
// one adapter before the teardown and recovers it after. A pair with one
// open end must stay listed on both adapters; once both ends are closed, by
// Close or by the failure, it must leave both lists, and the rest must stay
// in creation order. The mesh must end with every adapter listing exactly
// its open endpoints.
func TestHCADropsClosedPairs(t *testing.T) {
	const ranks = 16
	_, f := testFabric(t)
	var hcas []*HCA
	for _, n := range []string{"n0", "n1", "n2", "n3"} {
		hcas = append(hcas, f.AttachHCA(n))
	}
	var all []*QP // every endpoint ever connected
	connect := func() {
		for i := 0; i < ranks; i++ {
			for j := i + 1; j < ranks; j++ {
				qa, qb := ConnectQPPrepaid(hcas[i/4], hcas[j/4])
				all = append(all, qa, qb)
			}
		}
	}
	// check requires each adapter to list, in creation order, exactly its
	// endpoints that pass keep.
	check := func(when string, keep func(q *QP) bool) {
		t.Helper()
		for _, h := range hcas {
			var want []*QP
			for _, q := range all {
				if q.hca == h && keep(q) {
					want = append(want, q)
				}
			}
			if !slices.Equal(h.qps, want) {
				t.Errorf("%s: %s lists %d endpoints, want %d in creation order", when, h.node, len(h.qps), len(want))
			}
		}
	}
	pairOpen := func(q *QP) bool { return q.open || q.peer.open }
	connect()
	for cycle := 1; cycle <= 3; cycle++ {
		if cycle == 2 {
			hcas[1].Fail()
			check("after the failure", pairOpen)
		}
		for i := 0; i < len(all); i += 2 {
			all[i].Close()
		}
		check(fmt.Sprintf("cycle %d, lower ends closed", cycle), pairOpen)
		for i := 1; i < len(all); i += 2 {
			all[i].Close()
		}
		check(fmt.Sprintf("cycle %d, torn down", cycle), pairOpen)
		hcas[1].Recover()
		connect()
		check(fmt.Sprintf("cycle %d, rebuilt", cycle), pairOpen)
	}
	check("the end", func(q *QP) bool { return q.open })
	if n := len(hcas[0].qps); n != 4*(ranks-1) {
		t.Fatalf("n0 ends with %d endpoints, want %d", n, 4*(ranks-1))
	}
}
