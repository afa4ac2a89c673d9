// Package sim implements Mario's simulator-based performance model (§5.2).
//
// Given a schedule (instruction lists) and a latency/memory estimator, the
// simulator derives the earliest start time of every instruction by
// propagating the horizontal dependencies (list order within a device) and
// vertical dependencies (matched communication pairs across devices) — the
// dynamic-programming formulation of the paper, with no hand-identified
// critical path. It also performs the device-level memory simulation and
// flags out-of-memory configurations.
//
// The paper reports ~700 ms to simulate GPT3-13B (64 micro-batches, Chimera,
// 32 GPUs); this implementation precomputes all cross-device matches into
// flat arrays so the propagation loop runs allocation-free, and simulates
// the same size in a few milliseconds.
package sim

import (
	"errors"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// ErrDeadlock is returned when rendezvous communication can make no
// progress; the error text names a blocked instruction.
var ErrDeadlock = errors.New("sim: communication deadlock")

// ErrCommMismatch is returned when a receive pops a message other than the
// one it expects from the FIFO link, i.e. the schedule posts sends and
// receives on a device pair in inconsistent orders. This is the failure mode
// pass 4 of the graph tuner must avoid by buffering SendAct instructions.
var ErrCommMismatch = errors.New("sim: send/recv order mismatch on link")

// Options configures a simulation run.
type Options struct {
	// DP is the data-parallel degree; it sizes the cool-down all-reduce.
	// Zero means 1 (no data parallelism).
	DP int
	// Rendezvous makes sends block until the matching receive is posted
	// (fully synchronous p2p). The default is eager sends through a FIFO
	// link per device pair and channel, which matches NCCL-style tagged
	// p2p: a send completes into the link buffer, and receives must pop
	// messages in send order.
	Rendezvous bool
	// MemLimit is the per-device memory capacity in bytes; peaks above it
	// mark the result OOM. Zero disables the check.
	MemLimit float64
	// NoTimeline skips recording per-instruction spans (saves allocation
	// in search loops that only need totals).
	NoTimeline bool
}

// Span records the simulated execution interval of one instruction.
type Span struct {
	Instr      pipeline.Instr
	Start, End float64
}

// Result is the simulator output.
type Result struct {
	// Total is the iteration makespan in seconds.
	Total float64
	// Timeline holds per-device instruction spans in execution order
	// (nil when Options.NoTimeline is set).
	Timeline [][]Span
	// PeakMem is the per-device peak memory in bytes.
	PeakMem []float64
	// OOM reports whether any device exceeded Options.MemLimit.
	OOM bool
	// OOMDevices lists the devices that exceeded the limit.
	OOMDevices []int
	// ComputeBusy is the per-device time spent in compute instructions.
	ComputeBusy []float64
	// SamplesPerSec is the end-to-end training throughput
	// (micros × micro-batch size × dp / Total).
	SamplesPerSec float64
}

// BubbleRatio returns the fraction of the makespan the given device spends
// outside compute instructions.
func (r *Result) BubbleRatio(dev int) float64 {
	if r.Total <= 0 {
		return 0
	}
	return 1 - r.ComputeBusy[dev]/r.Total
}

// MinMaxPeak returns the smallest and largest per-device peak memory, the
// (Min,Max GB) columns of Table 5.
func (r *Result) MinMaxPeak() (lo, hi float64) {
	lo, hi = r.PeakMem[0], r.PeakMem[0]
	for _, p := range r.PeakMem[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi
}

// instClass partitions instruction kinds by simulator behaviour.
type instClass uint8

const (
	classCompute instClass = iota
	classSend
	classRecv
)

// meta is the precomputed per-instruction simulation metadata.
type meta struct {
	class instClass
	// dur is the compute duration (overhead included) for classCompute.
	dur float64
	// comm is the transfer latency for sends/receives.
	comm float64
	// matchDev/matchIdx locate the paired instruction for comm classes
	// (-1 when unmatched, which Validate would reject).
	matchDev, matchIdx int32
	// link indexes the FIFO this comm instruction uses.
	link int32
	// compute marks kinds counted into ComputeBusy.
	compute bool
}

// Simulate runs the dynamic-programming timeline and memory simulation.
//
// It delegates to a zero-value Simulator, so the package-level function and a
// reused engine are the same code path; search loops that evaluate many
// schedule candidates should hold a Simulator to amortise the metadata
// precomputation and working buffers across calls.
func Simulate(s *pipeline.Schedule, e *cost.Estimator, opt Options) (*Result, error) {
	var eng Simulator
	return eng.Simulate(s, e, opt)
}

// channelOf maps a communication kind to its link channel: activations and
// gradients travel on independent tagged channels.
func channelOf(k pipeline.Kind) int {
	if k == pipeline.SendGrad || k == pipeline.RecvGrad {
		return 1
	}
	return 0
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// deviceStages returns the distinct stages whose weights device dev holds
// (two for Chimera devices, one per chunk for interleaved devices).
func deviceStages(s *pipeline.Schedule, dev int) []int {
	return appendDeviceStages(nil, s.Placement, dev)
}

// appendDeviceStages is the append-style form of deviceStages; the Simulator
// uses it to fill its per-device cache without allocating.
func appendDeviceStages(out []int, pl pipeline.Placement, dev int) []int {
	for st := 0; st < pl.NumStages(); st++ {
		for p := 0; p < pl.NumParts(); p++ {
			if pl.Device(p, st) == dev {
				out = append(out, st)
				break
			}
		}
	}
	return out
}
