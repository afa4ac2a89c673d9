package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// refKernel is the calibration kernel's CPU time on the reference machine,
// a 2-vCPU x86-64 VM at a quiet moment. Every reported time is rescaled to
// that machine's speed: a figure of 500 ms means the op took 50 kernel runs.
const refKernel = 10 * time.Millisecond

// kernel is a fixed amount of CPU work that stands in for the machine's
// speed at the moment it runs. On a shared VM the CPU time of one and the
// same work swings by half from one second to the next, as neighbours load
// the host's cores, caches and memory; the program's ops swing with it. The
// kernel mixes what the planner does — pointer chasing over a few megabytes,
// map updates, sorting and floating point — so the ratio of an op's CPU time
// to the kernel's, measured next to it, keeps the op's cost and drops the
// machine's changing speed. Its work allocates nothing.
type kernel struct {
	next []int32 // one random cycle over all entries
	keys []uint64
	buf  []uint64
	m    map[uint64]int
	f    []float64
	sink uint64
	runs []time.Duration // every run's CPU time
}

const (
	kernelChase = 1 << 20 // 4 MB of int32 links
	kernelKeys  = 1 << 13
)

func newKernel() *kernel {
	rng := rand.New(rand.NewSource(1))
	k := &kernel{next: make([]int32, kernelChase), keys: make([]uint64, kernelKeys),
		buf: make([]uint64, kernelKeys), m: make(map[uint64]int, kernelKeys), f: make([]float64, 4096)}
	perm := rng.Perm(kernelChase)
	for i := range perm {
		k.next[perm[i]] = int32(perm[(i+1)%len(perm)])
	}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	for i := range k.f {
		k.f[i] = rng.Float64() + 0.5
	}
	return k
}

// work runs the kernel once.
func (k *kernel) work() {
	var acc uint64
	p := int32(0)
	for i := 0; i < 1<<16; i++ {
		p = k.next[p]
		acc += uint64(p)
	}
	for r := 0; r < 1; r++ {
		clear(k.m)
		for i, key := range k.keys {
			k.m[key^uint64(r)] = i
		}
		for _, key := range k.keys {
			acc += uint64(k.m[key^uint64(r)])
		}
	}
	for r := 0; r < 1; r++ {
		copy(k.buf, k.keys)
		k.buf[0] += uint64(r)
		slices.Sort(k.buf)
		acc += k.buf[len(k.buf)/2]
	}
	x := 0.0
	for r := 0; r < 24; r++ {
		for i, v := range k.f {
			x += math.Sqrt(v*float64(i+r)) / (v + 1)
		}
	}
	k.sink += acc + uint64(x)
}

// run collects the garbage left so far, so the work after it starts from a
// collected heap and no collection runs inside the kernel, then runs the
// kernel once and records its CPU time.
func (k *kernel) run() {
	runtime.GC()
	c0 := cpuTime()
	k.work()
	k.runs = append(k.runs, cpuTime()-c0)
}

// rescale converts a CPU time measured in this run to the reference
// machine's speed, by the median of the kernel runs made so far: the kernel
// runs before every op and every set-up, so its median is the machine's
// speed over the run.
func (k *kernel) rescale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refKernel) / float64(median(k.runs)))
}
