package main

import (
	"crypto/sha256"
	"time"
	"unsafe"
)

// probeRefMs is the reference host speed of the normalized metrics: the
// probe's time, in ms, on a host whose normalized times read as measured.
// It is about the probe's median on the 2-core host the bounds were set on.
const probeRefMs = 10.0

// probeBuf is the probe's working set, allocated once.
var probeBuf = make([]uint32, 4<<20) // 16 MiB

var probeSink uint32

// probeMs runs a fixed piece of the benchmark's own work and returns its
// wall time in ms: a pseudo-random read-modify-write walk over 16 MiB
// (memory latency, like the engine's hash joins and graph walks) and a
// SHA-256 pass over 1 MiB (arithmetic). It calls none of the repository's
// code, so a change to the program cannot move it; only the host's speed
// does. The shared host's speed drifts by up to half over minutes, and a
// probe taken next to each measured operation tracks that drift.
func probeMs() float64 {
	t0 := time.Now()
	x := uint32(2463534242)
	var acc uint32
	mask := uint32(len(probeBuf) - 1)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		acc += probeBuf[j]
		probeBuf[j] = acc + x
	}
	chunk := probeBuf[:1<<18]
	sum := sha256.Sum256(unsafe.Slice((*byte)(unsafe.Pointer(&chunk[0])), 4*len(chunk)))
	probeSink += acc + uint32(sum[0])
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// normalize converts a duration measured while the probe took probe ms to
// the reference host speed.
func normalize(d, probe float64) float64 {
	return d * probeRefMs / probe
}
