package ib

import (
	"errors"
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
