package main

// pinned holds each workload's simulated-output fingerprints: Ref for the
// reference (warm-up) op, checked on every run, and Seed1 for the first
// minOps measured ops at --seed 1. A change that alters a simulated result
// changes them; one that only speeds the simulator up must not.
var pinned = map[string]struct{ Ref, Seed1 uint64 }{
	"fig7_lu64":   {Ref: 0x39b1e3aeeb4688b7, Seed1: 0x7a136597542af790},
	"scale_lu256": {Ref: 0x8c502049ee53d871, Seed1: 0x4c37079488d8377f},
	"part_lu1024": {Ref: 0xa206e77ff175a93d, Seed1: 0x8ea290e262059115},
	"dst_sweep":   {Ref: 0xcfdefe76e18af2ca, Seed1: 0x339cae1540202d13},
}
