package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The benchmark shares its host's memory system with other tenants, and
// their load moves every timing by tens of percent over tens of seconds: on
// a 2-vCPU host, the median of identical part_lu1024 ops over 25 s windows
// ranged 626–851 ms in one 8-minute trace. A fixed pass of random
// read-modify-writes over 32 MB, timed between ops, slows down with it:
// dividing each op's wall time by the pass time around it cut the spread of
// those window medians from 17.3% to 3.3% (IQR over median, 18 windows).
//
// So every host time the end-to-end metrics report is scaled to a host on
// which the pass takes calRef: t × calRef / pass. The pass touches no
// repository code, so a change to the simulator moves the scaled time as much
// as the raw one. Raw times are printed beside the scaled ones.
const (
	calRef   = 12 * time.Millisecond
	calWords = 1 << 22 // 32 MB of uint64
	calIters = 1 << 20
)

// calEvery is the least op time between two calibration passes; ops shorter
// than this share the passes around them.
const calEvery = 500 * time.Millisecond

// calibrator owns the pass's buffer. It lives outside the Go heap, so it
// neither changes the GC's pacing of the ops nor gets scanned.
type calibrator struct{ buf []uint64 }

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calWords)}
	for i := range c.buf {
		c.buf[i] = uint64(i) // fault every page in before the first timed pass
	}
	return c, nil
}

// pass runs the calibration pass once and returns its duration.
func (c *calibrator) pass() time.Duration {
	start := time.Now()
	h := uint64(1)
	for k := 0; k < calIters; k++ {
		h = h*6364136223846793005 + 1442695040888963407
		c.buf[(h>>20)&(calWords-1)] += h
	}
	return time.Since(start)
}

// scale converts a host time to the reference host's, given the pass time
// measured around it.
func scale(ns, calNS int64) float64 {
	return float64(ns) * float64(calRef) / float64(calNS)
}
