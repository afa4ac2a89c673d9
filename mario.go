// Package mario is a Go reproduction of "Mario: Near Zero-cost Activation
// Checkpointing in Pipeline Parallelism" (PPoPP '25): a pipeline optimizer
// that tessellates activation checkpointing into existing pipeline schemes
// (1F1B "V", Chimera "X", Interleave "W"), hiding the recomputation in
// pipeline bubbles and balancing activation memory across devices.
//
// The public interface mirrors the paper's Listing 1: describe the cluster
// and the model, call Optimize to search for the best (scheme, pp, dp,
// micro-batch, checkpointing) configuration, and Run to execute the chosen
// schedule — here on an emulated cluster with one goroutine per device,
// since no GPUs are attached.
//
//	conf := mario.Config{PipelineScheme: "Auto", GlobalBatchSize: 128,
//	    NumDevices: 32, MemoryPerDevice: "40G"}
//	model := mario.Model("GPT3-13B")
//	plan, err := mario.Optimize(conf, model)
//	report, err := mario.Run(plan, 10)
package mario

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/telemetry"
	"mario/internal/tuner"
	"mario/internal/viz"
)

// Config is the mario_conf of Listing 1.
type Config struct {
	// PipelineScheme is "Auto" (search the paper's three schemes), a
	// scheme name ("1F1B", "Chimera", "Interleave", "GPipe", "ZB-H1",
	// "DualPipe-D") or a shape alias ("V", "X", "W", "Z", "D"). The
	// split-backward schemes Z and D are opt-in, not part of Auto.
	PipelineScheme string
	// GlobalBatchSize is the fixed number of samples per training
	// iteration.
	GlobalBatchSize int
	// NumDevices is the total accelerator count.
	NumDevices int
	// MemoryPerDevice is the per-device capacity, e.g. "40G", "80G" or
	// "12345678" (bytes).
	MemoryPerDevice string
	// TP is the fixed tensor-parallel degree (Equation 1 keeps TP
	// constant); 0 means 1.
	TP int
	// Checkpoint forces Mario's checkpointing on (true) or off (false);
	// nil lets the tuner decide.
	Checkpoint *bool
	// SplitBackward additionally tries the ZB-H1-style split-backward
	// transformation on checkpointed candidates (the paper's §8 future
	// work), kept only when the simulator confirms a win within the memory
	// budget.
	SplitBackward bool
	// MicroBatchSizes restricts the candidate micro-batch sizes; nil means
	// powers of two.
	MicroBatchSizes []int
	// MinPP/MaxPP bound the pipeline dimension (defaults: 4..NumDevices).
	MinPP, MaxPP int
	// Machine overrides the emulated hardware imperfections; zero value
	// uses profile.DefaultMachine.
	Machine profile.MachineSpec
	// DeviceSpeeds declares the relative compute speed of each device
	// (1 = nominal, 0.8 = 25% slower compute); nil or all-ones means a
	// homogeneous cluster. When set it must hold exactly NumDevices positive
	// entries, in data-parallel-replica-major order (replica k runs on
	// devices [k·pp, (k+1)·pp)). Heterogeneous speeds open the tuner's
	// partitioning/placement axis and carry through to the emulated cluster.
	DeviceSpeeds []float64
	// Placement selects the layer-partitioning/placement search mode:
	// "auto" (default — co-optimized assignment explored alongside the
	// uniform baseline on heterogeneous clusters, legacy behaviour on
	// homogeneous ones), "uniform" (force the even split with identity
	// placement) or "coopt" (force the co-optimized assignment; useful even
	// on homogeneous clusters, where the partition DP offloads the
	// embedding- and LM-head-heavy boundary stages).
	Placement string
	// Hardware overrides the device description; zero value uses A100-40G
	// with the memory limit from MemoryPerDevice.
	Hardware *cost.Hardware
	// Progress, when non-nil, is invoked after every tuner candidate with
	// the number of candidates explored so far and the best configuration
	// found (its Label and estimated throughput). Callbacks arrive in the
	// search's deterministic merge order regardless of Workers.
	Progress func(explored int, bestLabel string, bestThroughput float64)
	// Workers bounds the number of concurrent tuner evaluations; 0 means
	// GOMAXPROCS, 1 searches sequentially. The chosen plan, trace and
	// search stats are identical for every value.
	Workers int
	// NoPrune disables the tuner's admissible bound and memory prunes so
	// every feasible configuration is simulated and appears in the trace.
	// The best plan is byte-identical either way.
	NoPrune bool
	// Tracer, when non-nil, records the search's own telemetry: a
	// PhaseOptimize root span with the tuner grid, graph-pass, simulator
	// and robustness work nested under it (see internal/telemetry). The
	// canonical exports of the resulting trace are byte-identical for
	// every Workers value; a nil Tracer costs nothing.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the search counters (grid outcomes,
	// memoization, simulator executions) as registry series.
	Metrics *telemetry.SearchMetrics
	// Sharder, when non-nil, distributes the branch-and-bound expansion
	// across a planning fleet (tuner.ShardDispatcher): the probe pass runs
	// locally and the sorted grid points are dispatched in shard waves with
	// incumbent-bound sharing. The plan is byte-identical to a local search
	// for every fleet shape.
	Sharder tuner.ShardDispatcher
}

// ModelConfig is the model_conf of Listing 1.
type ModelConfig = cost.ModelConfig

// Model returns a named preset (Table 4): "GPT3-1.6B", "GPT3-13B",
// "LLaMA2-3B", "LLaMA2-13B". It panics on unknown names (a deliberate
// fail-fast for a fixed catalogue; use Models for lookup).
func Model(name string) ModelConfig {
	m, ok := cost.Models[name]
	if !ok {
		panic(fmt.Sprintf("mario: unknown model %q", name))
	}
	return m
}

// Models lists the built-in model presets by name.
func Models() map[string]ModelConfig {
	out := make(map[string]ModelConfig, len(cost.Models))
	for k, v := range cost.Models {
		out[k] = v
	}
	return out
}

// Plan is the optimized schedule returned by Optimize — the paper's
// "schedule" object, ready for Run.
type Plan struct {
	// Best is the winning configuration.
	Best tuner.Candidate
	// Trace is the full tuning trace in search order (Fig. 11's curve).
	Trace []tuner.Candidate
	// Profiler retains the fitted estimators for re-simulation.
	Profiler *profile.Profiler
	// SearchStats counts what the tuner explored, rejected for memory and
	// pruned while producing the plan.
	SearchStats tuner.SearchStats

	memLimit float64
	tp       int
}

// ParseMemory converts "40G", "512M", "1T" or a plain byte count to bytes.
func ParseMemory(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	s = strings.TrimSuffix(s, "B") // tolerate "40GB", "512MB", …
	if s == "" {
		return 0, fmt.Errorf("mario: empty memory spec")
	}
	mult := 1.0
	switch s[len(s)-1] {
	case 'K':
		mult = 1 << 10
	case 'M':
		mult = 1 << 20
	case 'G':
		mult = 1 << 30
	case 'T':
		mult = 1 << 40
	}
	if mult != 1 {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("mario: invalid memory spec: %w", err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("mario: memory must be positive")
	}
	return v * mult, nil
}

// Optimize searches Equation 1's space for the configuration with the best
// estimated throughput under the memory budget and returns the executable
// plan. It never aborts early; use OptimizeContext to bound or cancel the
// search.
func Optimize(conf Config, model ModelConfig) (*Plan, error) {
	return OptimizeContext(context.Background(), conf, model)
}

// OptimizeContext is Optimize with cancellation: when ctx is cancelled or
// its deadline passes, the tuner's worker pool stops evaluating grid points
// and the call returns ctx's error. A completed OptimizeContext returns a
// plan byte-identical to Optimize for the same inputs and any worker count —
// the property the planning service's cache relies on.
func OptimizeContext(ctx context.Context, conf Config, model ModelConfig) (*Plan, error) {
	tn, space, memLimit, tp, err := searchSetup(conf, model)
	if err != nil {
		return nil, err
	}
	root := conf.Tracer.Root(telemetry.PhaseOptimize, "")
	root.SetInt("devices", int64(conf.NumDevices))
	root.SetInt("global_batch", int64(conf.GlobalBatchSize))
	defer root.End()
	metrics := conf.Metrics
	if metrics == nil {
		metrics = conf.Tracer.Metrics()
	}
	tn.Span = root
	tn.Metrics = metrics
	tn.Sharder = conf.Sharder
	if cb := conf.Progress; cb != nil {
		explored := 0
		tn.Progress = func(_ tuner.Candidate, best tuner.Candidate) {
			explored++
			cb(explored, best.Label(), best.Throughput)
		}
	}
	best, trace, err := tn.SearchContext(ctx, space)
	if err != nil {
		return nil, err
	}
	return &Plan{Best: *best, Trace: trace, Profiler: tn.Prof, SearchStats: tn.Stats, memLimit: memLimit, tp: tp}, nil
}

// searchSetup resolves a Config + model pair into a ready Tuner and its
// search Space — the shared front half of OptimizeContext and the fleet
// worker path (NewShardWorker), which must construct the byte-identical
// search a coordinator probes in order to evaluate shards of it.
func searchSetup(conf Config, model ModelConfig) (*tuner.Tuner, tuner.Space, float64, int, error) {
	var space tuner.Space
	if err := model.Validate(); err != nil {
		return nil, space, 0, 0, err
	}
	if conf.NumDevices <= 0 || conf.GlobalBatchSize <= 0 {
		return nil, space, 0, 0, fmt.Errorf("mario: NumDevices (%d) and GlobalBatchSize (%d) must be positive",
			conf.NumDevices, conf.GlobalBatchSize)
	}
	hw := cost.A100_40G
	if conf.Hardware != nil {
		hw = *conf.Hardware
	}
	memLimit := hw.MemBytes
	if conf.MemoryPerDevice != "" {
		v, err := ParseMemory(conf.MemoryPerDevice)
		if err != nil {
			return nil, space, 0, 0, err
		}
		memLimit = v
		hw.MemBytes = v
	}
	spec := conf.Machine
	if spec == (profile.MachineSpec{}) {
		spec = profile.DefaultMachine
	}

	var schemes []pipeline.Scheme
	if name := strings.TrimSpace(conf.PipelineScheme); name != "" && !strings.EqualFold(name, "auto") {
		s, err := pipeline.ParseScheme(name)
		if err != nil {
			return nil, space, 0, 0, err
		}
		schemes = []pipeline.Scheme{s}
	}
	var ckpt []bool
	if conf.Checkpoint != nil {
		ckpt = []bool{*conf.Checkpoint}
	}
	if len(conf.DeviceSpeeds) != 0 && len(conf.DeviceSpeeds) != conf.NumDevices {
		return nil, space, 0, 0, fmt.Errorf("mario: %d device speeds for %d devices", len(conf.DeviceSpeeds), conf.NumDevices)
	}
	for d, v := range conf.DeviceSpeeds {
		if v <= 0 {
			return nil, space, 0, 0, fmt.Errorf("mario: device %d speed %g must be positive", d, v)
		}
	}
	pmode, err := place.ParseMode(conf.Placement)
	if err != nil {
		return nil, space, 0, 0, err
	}

	prof := &profile.Profiler{Model: model, HW: hw, Spec: spec, Devices: 4, Iters: 10}
	tn := &tuner.Tuner{Prof: prof, SplitBackward: conf.SplitBackward}
	space = tuner.Space{
		Devices:      conf.NumDevices,
		GlobalBatch:  conf.GlobalBatchSize,
		Schemes:      schemes,
		Checkpoint:   ckpt,
		MicroBatches: conf.MicroBatchSizes,
		MinPP:        conf.MinPP,
		MaxPP:        conf.MaxPP,
		TP:           conf.TP,
		DeviceMem:    memLimit,
		Workers:      conf.Workers,
		NoPrune:      conf.NoPrune,
		DeviceSpeeds: conf.DeviceSpeeds,
		Placement:    pmode,
	}
	tp := conf.TP
	if tp <= 0 {
		tp = 1
	}
	return tn, space, memLimit, tp, nil
}

// ShardWorker is the worker half of the distributed planning fleet: it
// holds the profiler-backed tuner for one workload (one Config + model
// pair) and evaluates shard batches a coordinator dispatches. Schedule
// builds and graph-pass results are memoized on the worker across calls,
// so evaluating many shards of the same workload shares work exactly like
// a local search does. Methods are safe for concurrent use.
type ShardWorker struct {
	tn    *tuner.Tuner
	space tuner.Space
}

// NewShardWorker resolves the workload like OptimizeContext does and
// returns the reusable worker. Metrics, when non-nil, receives the
// worker's simulation counts.
func NewShardWorker(conf Config, model ModelConfig, metrics *telemetry.SearchMetrics) (*ShardWorker, error) {
	tn, space, _, _, err := searchSetup(conf, model)
	if err != nil {
		return nil, err
	}
	tn.Metrics = metrics
	return &ShardWorker{tn: tn, space: space}, nil
}

// EvalShard evaluates one dispatched shard batch in order, skipping points
// the incumbent dooms (nil means no incumbent yet). The outcomes are
// exactly what a coordinator's local evaluation of the batch would
// produce — the contract the fleet's byte-identity rests on.
func (w *ShardWorker) EvalShard(ctx context.Context, points []tuner.ShardPoint, incumbent *float64) ([]tuner.ShardOutcome, error) {
	inc, hasInc := 0.0, false
	if incumbent != nil {
		inc, hasInc = *incumbent, true
	}
	return w.tn.EvalShard(ctx, w.space, points, inc, hasInc)
}

// Sink receives one Event per executed instruction of a measured run; see
// the obs package for the delivery contract and ready-made sinks.
type Sink = obs.Sink

// Event is one measured instruction execution.
type Event = obs.Event

// Recorder is a Sink that retains every event in memory.
type Recorder = obs.Recorder

// MeasuredStats is the per-device metrics digest derived from a measured
// run's event stream.
type MeasuredStats = obs.Stats

// DriftReport quantifies predicted-vs-measured disagreement; see Drift.
type DriftReport = obs.DriftReport

// FaultPlan is a deterministic fault scenario for RunOptions.Faults; see the
// fault package for the plan vocabulary (slowdowns, link faults, stalls).
type FaultPlan = fault.Plan

// ParseFaults resolves a fault-plan argument: a path to a JSON plan file, or
// an inline spec like "slow:dev=1,factor=1.5; link:from=0,to=1,drop=0.05".
func ParseFaults(arg string) (*FaultPlan, error) {
	return fault.ParseOrLoad(arg)
}

// RunReport summarises an execution of the plan on the emulated cluster.
type RunReport struct {
	// IterTime is the measured time per training iteration in seconds.
	IterTime float64
	// Total is the measured virtual time for all iterations in seconds.
	Total float64
	// SamplesPerSec is the measured training throughput.
	SamplesPerSec float64
	// PeakMemMin and PeakMemMax are the per-device peak-memory extremes in
	// bytes (the (Min,Max GB) columns of Table 5).
	PeakMemMin, PeakMemMax float64
	// PeakMem is the full per-device peak memory in bytes.
	PeakMem []float64
	// WatchdogResets counts how often the deadlock watchdog re-armed
	// because the cluster was slow but still making progress.
	WatchdogResets int
	// StallResets counts watchdog firings absorbed by an injected
	// wall-clock stall instead of being declared deadlocks.
	StallResets int
	// FaultDrops, FaultStall and FaultSlowed summarise the injected faults
	// of a run made with RunOptions.Faults: dropped-and-retried p2p
	// attempts, total injected stall time in virtual seconds, and slowed
	// compute instructions. All zero on a healthy run.
	FaultDrops  int
	FaultStall  float64
	FaultSlowed int
	// FaultPlan is the name of the fault plan the run executed under
	// (empty for a healthy run); Drift uses it to label faulted reports.
	FaultPlan string
	// Events is the measured per-instruction event stream (nil unless
	// RunOptions.CollectEvents was set or a Recorder sink was attached).
	Events []Event
	// Stats is the per-device metrics digest derived from Events (nil when
	// no events were collected).
	Stats *MeasuredStats
}

// RunOptions configures observability for RunWithOptions. The zero value
// records nothing and adds no overhead.
type RunOptions struct {
	// Sink, when non-nil, receives every measured instruction event after
	// the run completes (deterministic device-major order).
	Sink Sink
	// CollectEvents additionally retains the event stream in
	// RunReport.Events and derives RunReport.Stats from it.
	CollectEvents bool
	// Faults, when non-nil and non-empty, degrades the emulated hardware
	// under the fault plan (see internal/fault): compute slowdowns, link
	// degradation with bounded retry, and whole-device stalls — all in
	// virtual time, so faulted runs stay deterministic.
	Faults *fault.Plan
}

// Run executes the plan's schedule for iters training iterations on the
// emulated cluster and reports measured throughput and memory.
func Run(p *Plan, iters int) (*RunReport, error) {
	return RunWithOptions(p, iters, RunOptions{})
}

// RunWithOptions is Run with observability attached: an optional event sink
// and optional in-report event collection with derived per-device stats.
func RunWithOptions(p *Plan, iters int, opts RunOptions) (*RunReport, error) {
	if p == nil || p.Best.Schedule == nil {
		return nil, fmt.Errorf("mario: plan has no schedule")
	}
	stages := p.Best.Schedule.NumStages()
	tp := p.tp
	if tp <= 0 {
		tp = 1
	}
	// Plans tuned with a partitioning/placement assignment run on a machine
	// that mirrors it: the truth estimator carries the same layer split and
	// the emulator applies the same per-rank speed factors the simulator
	// scored with.
	var mach *cluster.Machine
	var err error
	if pa := p.Best.Place; pa != nil {
		mach, err = p.Profiler.NewMachinePartitioned(p.Profiler.Model, stages, p.Best.MicroBatch, tp,
			pa.LayersPerStage, pa.RankSpeed)
	} else {
		mach, err = p.Profiler.NewMachine(p.Profiler.Model, stages, p.Best.MicroBatch, tp)
	}
	if err != nil {
		return nil, err
	}
	mach.DP = p.Best.DP
	mach.Faults = opts.Faults
	var rec *Recorder
	if opts.CollectEvents {
		rec = &Recorder{}
		mach.Sink = obs.Multi(rec, opts.Sink)
	} else {
		mach.Sink = opts.Sink
	}
	rep, err := mach.Run(p.Best.Schedule, iters)
	if err != nil {
		return nil, err
	}
	out := &RunReport{
		IterTime:       rep.IterTime,
		Total:          rep.Total,
		SamplesPerSec:  rep.SamplesPerSec,
		PeakMem:        rep.PeakMem,
		WatchdogResets: rep.WatchdogResets,
		StallResets:    rep.StallResets,
		FaultDrops:     rep.FaultDrops,
		FaultStall:     rep.FaultStall,
		FaultSlowed:    rep.FaultSlowed,
	}
	if !opts.Faults.Empty() {
		out.FaultPlan = opts.Faults.Name
		if out.FaultPlan == "" {
			out.FaultPlan = "unnamed plan"
		}
	}
	out.PeakMemMin, out.PeakMemMax = rep.PeakMem[0], rep.PeakMem[0]
	for _, v := range rep.PeakMem[1:] {
		if v < out.PeakMemMin {
			out.PeakMemMin = v
		}
		if v > out.PeakMemMax {
			out.PeakMemMax = v
		}
	}
	if rec != nil {
		out.Events = rec.Events
		out.Stats = obs.Compute(rec.Events, rep.Total)
		out.Stats.WatchdogResets = rep.WatchdogResets
	}
	return out, nil
}

// Drift aligns a measured run's event stream with the plan's predicted
// timeline and quantifies the disagreement (per-kind latency MAPE, memory
// MAPE, worst-offending instructions). The report requires rep.Events, i.e.
// a run made with RunOptions.CollectEvents.
func Drift(p *Plan, rep *RunReport) (*DriftReport, error) {
	if p == nil || p.Best.Result == nil {
		return nil, fmt.Errorf("mario: plan has no simulation result")
	}
	if rep == nil || len(rep.Events) == 0 {
		return nil, fmt.Errorf("mario: run report has no events (use RunOptions.CollectEvents)")
	}
	dr := obs.ComputeDrift(rep.Events, p.Best.Result, rep.PeakMem)
	dr.FaultPlan = rep.FaultPlan
	return dr, nil
}

// Visualize writes the plan's simulated timeline as an ASCII Gantt chart —
// the paper's Fig. 5 visualisation.
func Visualize(w io.Writer, p *Plan) error {
	if p == nil || p.Best.Result == nil {
		return fmt.Errorf("mario: plan has no simulation result")
	}
	_, err := io.WriteString(w, viz.ASCII(p.Best.Result, 0))
	return err
}
