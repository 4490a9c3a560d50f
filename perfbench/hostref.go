package main

import (
	"runtime"
	"time"
)

// The host's speed drifts. On a small shared VM the same simulation
// takes anywhere from 0.7 to 1.5 times its usual CPU time, in spells
// that last from seconds to minutes, as other tenants come and go on
// the cores and caches this one shares. Every host time the benchmark
// reports is therefore taken relative to a fixed reference kernel that
// it runs right before and right after the measured work: kernel and
// simulation slow down together, and their ratio stays. The ratio is
// scaled by refNominal, so a figure reads as CPU time on a host where
// the kernel takes refNominal. A change to the simulator moves the
// ratio in full, because the kernel is the benchmark's own code and
// calls nothing in the repository.
//
// The kernel does what the simulator does most: data-dependent
// branches over a small table, and a Go map of pointers to small heap
// objects that it fills, updates and empties, allocating as it goes and
// leaving the garbage collector to clean up. On that host a kernel of
// branches alone, or of dependent loads from a 16 MB table alone,
// followed the simulator's slow spells only part of the way.

const (
	refBranchSteps = 2 << 20
	refMapSteps    = 1 << 18
	refMapKeys     = 1 << 17
	// refNominal is the kernel's CPU time on the 2-vCPU Xeon VM the
	// benchmark was written on, in a quiet spell.
	refNominal = 75 * time.Millisecond
)

var refSink uint64

// refKernel runs the kernel once and returns its CPU time. It collects
// garbage before and after, untimed, so that the kernel does not sweep
// the measured work's garbage on its clock, nor the measured work the
// kernel's.
func refKernel() time.Duration {
	runtime.GC()
	c0 := cpuNow()
	refBranches()
	refMaps()
	d := cpuNow() - c0
	runtime.GC()
	return d
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func refBranches() {
	var table [1 << 14]uint64
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for n := 0; n < refBranchSteps; n++ {
		x = xorshift(x)
		j := x % uint64(len(table))
		switch {
		case x&1 == 0:
			acc += table[j]
		case x&2 == 0:
			table[j] ^= acc
		default:
			acc ^= x >> 3
		}
	}
	refSink += acc
}

type refNode struct {
	key  uint64
	next *refNode
	val  [3]uint64
}

func refMaps() {
	m := make(map[uint64]*refNode, refMapKeys/4)
	x := uint64(12345)
	for n := 0; n < refMapSteps; n++ {
		x = xorshift(x)
		key := x & (refMapKeys - 1)
		if p, ok := m[key]; ok {
			p.val[0]++
			if p.val[0]&3 == 0 {
				delete(m, key)
			}
		} else {
			m[key] = &refNode{key: key}
		}
	}
	refSink += uint64(len(m))
}

// refClock converts CPU times into reference-host time. Each call of
// next runs the kernel once more; the spans measured between two calls
// are scaled by the mean of the two kernel runs around them.
type refClock struct{ runs []time.Duration }

func newRefClock() *refClock { return &refClock{runs: []time.Duration{refKernel()}} }

// next runs the kernel and returns the factor that converts the CPU
// time measured since the previous call into reference-host time.
func (c *refClock) next() float64 {
	k := refKernel()
	f := 2 * float64(refNominal) / float64(c.runs[len(c.runs)-1]+k)
	c.runs = append(c.runs, k)
	return f
}

// samplesMS returns the kernel's CPU time of every run so far, in ms.
func (c *refClock) samplesMS() []float64 {
	out := make([]float64, len(c.runs))
	for i, d := range c.runs {
		out[i] = float64(d) / 1e6
	}
	return out
}
