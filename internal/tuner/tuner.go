// Package tuner implements Mario's automatic schedule tuner (§5.3): a grid
// search over Equation 1's parameters — checkpointing on/off, pipeline
// scheme, PP dimension, DP dimension, micro-batch size — maximising the
// simulator-estimated training throughput under the device-memory
// constraint. Configurations that the simulator predicts to exceed device
// memory score zero (the paper's OOM penalty), and a data-parallel
// efficiency coefficient models DP scaling.
//
// The search is one branch-and-bound walk (bnb.go): a cheap probe pass
// bounds every grid point, the feasible points are expanded best-first on a
// bounded worker pool (Space.Workers) or across a planning fleet (fleet.go),
// and one merge loop decides every point in a fixed order, so the best
// candidate, the trace and the SearchStats are identical for every worker
// count and fleet shape. A memoization layer shares built schedules and
// graph-pass output across grid points (and across Search calls on the same
// Tuner).
package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// Space is the search space of Equation 1.
type Space struct {
	// Devices is the total accelerator count D.
	Devices int
	// GlobalBatch is the fixed global batch size (samples per iteration).
	GlobalBatch int
	// Schemes lists the candidate pipeline schemes b; nil means {V, X, W}.
	Schemes []pipeline.Scheme
	// Checkpoint lists the candidate values of a; nil means {false, true}.
	Checkpoint []bool
	// MinPP and MaxPP bound the pipeline-parallel dimension; zero values
	// default to the paper's 4 ≤ pp ≤ D.
	MinPP, MaxPP int
	// MicroBatches lists candidate micro-batch sizes; nil means powers of
	// two up to 32.
	MicroBatches []int
	// TP is the fixed tensor-parallel degree (Equation 1 keeps it
	// constant); 0 means 1. TP devices are in addition to Devices.
	TP int
	// DeviceMem is the per-device memory budget dmem in bytes; zero
	// disables the OOM penalty.
	DeviceMem float64
	// Chunks is the Interleave model-chunk count; 0 means 2.
	Chunks int
	// Workers bounds the number of concurrent grid-point evaluations;
	// 0 means GOMAXPROCS, 1 evaluates inline with no goroutines. Results
	// are identical for every worker count.
	Workers int
	// NoPrune disables the bound and memory prunes so every structurally
	// feasible point is simulated — the trace then contains the full
	// Fig. 11 curve. Benchmarks also use it to compare equal amounts of
	// work across worker counts. The best candidate is the same either way.
	NoPrune bool
	// DeviceSpeeds declares the relative compute speed of each physical
	// device (1 = nominal); nil or all-ones means a homogeneous cluster and
	// keeps the search byte-identical to one without the field. Entries map
	// to devices in data-parallel-replica-major order: replica k runs on
	// devices [k·pp, (k+1)·pp). Lists shorter than the device count treat
	// missing entries as nominal.
	DeviceSpeeds []float64
	// Placement selects the partitioning/placement axis (see place.Mode):
	// ModeAuto (the default) explores the co-optimized assignment alongside
	// the uniform baseline on heterogeneous clusters and collapses to the
	// legacy behaviour on homogeneous ones; ModeUniform forces the even
	// split with identity placement; ModeCoOpt forces the co-optimized
	// assignment (useful even on homogeneous clusters, where the DP shifts
	// layers off the embedding- and LM-head-heavy boundary stages).
	Placement place.Mode
}

func (s Space) withDefaults() Space {
	if s.Schemes == nil {
		s.Schemes = []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave}
	}
	if s.Checkpoint == nil {
		s.Checkpoint = []bool{false, true}
	}
	if s.MinPP <= 0 {
		s.MinPP = 4
		if s.MinPP > s.Devices {
			s.MinPP = s.Devices
		}
	}
	if s.MaxPP <= 0 || s.MaxPP > s.Devices {
		s.MaxPP = s.Devices
	}
	if s.MicroBatches == nil {
		s.MicroBatches = []int{1, 2, 4, 8, 16, 32}
	}
	if s.TP <= 0 {
		s.TP = 1
	}
	if s.Chunks <= 0 {
		s.Chunks = 2
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if place.Homogeneous(s.DeviceSpeeds) {
		// All-nominal speed lists normalize to nil so a "1,1,…,1" spec is
		// byte-identical to no spec at all (on workers and coordinators
		// alike — withDefaults runs on both sides of the fleet protocol).
		s.DeviceSpeeds = nil
	}
	if s.Placement == "" {
		s.Placement = place.ModeAuto
	}
	return s
}

// placementModes lists the placement-axis values enumerate appends to each
// grid coordinate. The empty mode is the legacy axis-free point: homogeneous
// clusters under ModeAuto (or ModeUniform, which is the legacy behaviour
// there) produce exactly that, keeping the grid — and with it every key,
// span and stat — byte-identical to a search without the subsystem.
func placementModes(space Space) []place.Mode {
	hetero := !place.Homogeneous(space.DeviceSpeeds)
	switch space.Placement {
	case place.ModeUniform:
		if hetero {
			return []place.Mode{place.ModeUniform}
		}
		return []place.Mode{""}
	case place.ModeCoOpt:
		return []place.Mode{place.ModeCoOpt}
	default:
		if hetero {
			return []place.Mode{place.ModeUniform, place.ModeCoOpt}
		}
		return []place.Mode{""}
	}
}

// Candidate is one evaluated configuration. The paper labels candidates
// x-y-z = scheme-PP-mbs.
type Candidate struct {
	Scheme     pipeline.Scheme
	Ckpt       bool
	PP, DP     int
	MicroBatch int
	Micros     int
	// Throughput is the estimated end-to-end samples/sec (0 when the
	// simulator predicts OOM).
	Throughput float64
	// OOM reports the memory penalty.
	OOM bool
	// Result and Schedule hold the winning simulation artifacts (nil for
	// infeasible candidates).
	Result   *sim.Result
	Schedule *pipeline.Schedule
	// PlaceMode records which placement-axis value produced the candidate;
	// empty for legacy axis-free points. The omitempty tags keep the plan
	// JSON of axis-free candidates byte-identical to the version-1 body.
	PlaceMode place.Mode `json:",omitempty"`
	// Place is the partitioning/placement assignment the candidate was
	// scored with; nil for legacy axis-free points (even split, identity
	// placement, homogeneous speeds).
	Place *place.Assignment `json:",omitempty"`
}

// Label renders the paper's x-y-z naming plus the Mario flag, suffixed with
// the placement mode when the candidate carries one.
func (c Candidate) Label() string {
	tag := "base"
	if c.Ckpt {
		tag = "mario"
	}
	s := fmt.Sprintf("%s-%d-%d(%s)", c.Scheme.Shape(), c.PP, c.MicroBatch, tag)
	if c.PlaceMode != "" {
		s += "+" + string(c.PlaceMode)
	}
	return s
}

// SearchStats counts what one Search call explored — the tuner's own
// observability: how much of the grid was simulated, how much the memory
// penalty rejected, and how much was skipped before simulation. All counters
// are accumulated in the merge loop's deterministic order, so they are
// identical for every Space.Workers value and fleet shape.
type SearchStats struct {
	// Explored counts candidates that reached the simulator (they appear
	// in the trace).
	Explored int
	// OOMRejected counts explored candidates zeroed by the memory penalty.
	OOMRejected int
	// Pruned counts grid points skipped as structurally impossible before
	// any simulation (indivisible batch, scheme constraints, too few
	// layers).
	Pruned int
	// BoundPruned counts feasible grid points whose admissible throughput
	// upper bound could not beat the best already found, so their
	// simulation was skipped. Zero when Space.NoPrune is set.
	BoundPruned int
	// MemPruned counts feasible grid points whose admissible memory lower
	// bound already exceeds Space.DeviceMem while the incumbent throughput
	// is positive: their simulated throughput is provably zero (Equation
	// 1's OOM penalty), so the search skips their simulation. Zero when
	// Space.NoPrune is set.
	MemPruned int
	// Improved counts how many times the best-so-far advanced. Candidates
	// merge in bound order rather than grid order, so the count differs
	// from a canonical-order walk's (the final best does not).
	Improved int
}

// invariant reports the expansion-order-invariant digest of the stats: the
// structural-prune count and the total number of feasible points, which the
// search partitions the same way between explored and pruned whatever it
// prunes. Equivalence tests compare this against the exhaustive walk.
func (s SearchStats) invariant() (pruned, feasible int) {
	return s.Pruned, s.Explored + s.BoundPruned + s.MemPruned
}

// Tuner runs the grid search using a profiler as the estimator source E and
// the simulator as the performance model F.
type Tuner struct {
	Prof *profile.Profiler
	// DPEfficiency is the per-doubling data-parallel scaling coefficient
	// (0 < eff ≤ 1); values outside that range are clamped: ≤ 0 means the
	// default 0.97, > 1 is capped at perfect scaling.
	DPEfficiency float64
	// MaxRounds bounds the prepose search inside graph.Optimize; 0 means 8.
	MaxRounds int
	// SplitBackward additionally tries the ZB-H1-style split-backward
	// transformation on each checkpointed candidate, keeping it when the
	// simulator confirms an improvement within the memory budget.
	SplitBackward bool
	// Progress, when non-nil, is invoked after every explored candidate
	// with that candidate and the best found so far (Fig. 11's curve,
	// streamed). It runs on the merging goroutine in the merge order
	// (best-first by bound), regardless of Space.Workers.
	Progress func(c Candidate, best Candidate)
	// Span, when live, parents the telemetry of every Search call: each
	// SearchContext records a PhaseSearch subtree under it — one PhasePoint
	// child per grid point, with build/graph/sim children on the points
	// simulated locally. Workers record spans speculatively, but the merge
	// loop attaches or discards them, and the exports order siblings
	// canonically, so the canonical trace exports are byte-identical for
	// every Space.Workers value. The zero Span disables tracing at zero cost.
	Span telemetry.Span
	// Metrics, when non-nil, receives the search counters as registry
	// series. The grid-outcome counters are incremented from the canonical
	// merge loop (so their totals match SearchStats exactly); memoization
	// and simulation counts are folded in as deltas and — like CacheStats —
	// are not deterministic under Workers > 1.
	Metrics *telemetry.SearchMetrics
	// Sharder, when non-nil, distributes the expansion across a planning
	// fleet (see fleet.go): the probe pass runs locally, the sorted nodes
	// are dispatched in shard waves, and the merge replays the canonical
	// decisions, so the plan is byte-identical to a local search.
	Sharder ShardDispatcher

	// Stats describes the most recent Search call. It is updated as
	// candidates merge; reading it from another goroutine while Search is
	// running must go through StatsSnapshot.
	Stats SearchStats
	// Fleet describes how the most recent fleet search divided its work
	// (all zero for local searches); read it through FleetSnapshot while a
	// search is running. It is deliberately not part of the plan.
	Fleet FleetStats

	statsMu sync.Mutex
	builds  memo[buildKey, *pipeline.Schedule]
	graphs  memo[graphKey, graphVal]
}

// StatsSnapshot returns a consistent copy of Stats. It is the race-safe way
// for Progress callbacks (or anything else observing a running Search from
// another goroutine) to read the counters.
func (t *Tuner) StatsSnapshot() SearchStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.Stats
}

func (t *Tuner) publishStats(s SearchStats) {
	t.statsMu.Lock()
	t.Stats = s
	t.statsMu.Unlock()
}

func (t *Tuner) dpEff(dp int) float64 {
	eff := t.DPEfficiency
	if eff <= 0 {
		eff = 0.97
	}
	if eff > 1 {
		eff = 1 // perfect scaling is the physical ceiling
	}
	if dp <= 1 {
		return 1
	}
	return math.Pow(eff, math.Log2(float64(dp)))
}

// gridPoint is one canonical grid coordinate of Equation 1. pmode is the
// placement-axis value; the zero value is the legacy axis-free point.
type gridPoint struct {
	scheme pipeline.Scheme
	ckpt   bool
	pp, dp int
	mbs    int
	pmode  place.Mode
}

// pointResult is one (possibly speculative) outcome for a grid point. The
// zero value is "no verdict": a skipped or lost evaluation, which the merge
// loop re-evaluates if its own decision says the point must be explored.
type pointResult struct {
	// cand is the simulated candidate, nil without a verdict.
	cand *Candidate
	// infeasible marks points whose evaluation failed structurally (scheme
	// constraints, estimator limits, a graph-pass error).
	infeasible bool
	// err carries a context cancellation observed while evaluating the
	// point; the merge loop converts it into an aborted Search. Ordinary
	// evaluation failures are never reported here — they stay structural
	// infeasibilities.
	err error
	// span is the detached point span the evaluation recorded into; the
	// merge loop attaches or discards it.
	span telemetry.Span
}

// enumerate lists the grid in canonical iteration order: scheme-major, then
// checkpointing, then PP (ascending, divisors of D only), then micro-batch
// size — the order the sequential search of the paper walks.
func enumerate(space Space) []gridPoint {
	modes := placementModes(space)
	var points []gridPoint
	for _, b := range space.Schemes {
		for _, a := range space.Checkpoint {
			for pp := space.MinPP; pp <= space.MaxPP; pp++ {
				if space.Devices%pp != 0 {
					continue
				}
				dp := space.Devices / pp
				for _, mbs := range space.MicroBatches {
					for _, pm := range modes {
						points = append(points, gridPoint{scheme: b, ckpt: a, pp: pp, dp: dp, mbs: mbs, pmode: pm})
					}
				}
			}
		}
	}
	return points
}

// Search enumerates the space and returns the best candidate plus the
// evaluation trace in canonical iteration order (the throughput curve of
// Fig. 11 when Space.NoPrune keeps every point). The search probes every
// grid point, expands the feasible ones best-first on Space.Workers
// goroutines (or across Tuner.Sharder's fleet) and merges the outcomes in
// one deterministic order, so the output is identical for every worker
// count and fleet shape.
//
// Search never aborts early; use SearchContext to bound or cancel a search.
func (t *Tuner) Search(space Space) (*Candidate, []Candidate, error) {
	return t.SearchContext(context.Background(), space)
}

// SearchContext is Search with cancellation: when ctx is cancelled or its
// deadline passes, the workers stop evaluating grid points, the merge loop
// unwinds, and the call returns ctx's error with no candidate and no trace.
// A completed SearchContext is byte-identical to Search for every worker
// count; a cancelled one publishes whatever Stats had accumulated at the
// abort point.
func (t *Tuner) SearchContext(ctx context.Context, space Space) (*Candidate, []Candidate, error) {
	space = space.withDefaults()
	if space.Devices <= 0 || space.GlobalBatch <= 0 {
		return nil, nil, fmt.Errorf("tuner: devices (%d) and global batch (%d) must be positive", space.Devices, space.GlobalBatch)
	}
	points := enumerate(space)
	var stats SearchStats
	t.publishStats(stats)
	t.publishFleet(FleetStats{})

	tracer := t.Span.Tracer()
	search := t.Span.Child(telemetry.PhaseSearch, "")
	search.SetInt("points", int64(len(points)))
	if t.Sharder != nil {
		search.SetStr("strategy", "fleet")
	} else {
		search.SetStr("strategy", "bnb")
	}
	searchStart := time.Now()
	buildH0, buildM0 := t.builds.hits.Load(), t.builds.misses.Load()
	graphH0, graphM0 := t.graphs.hits.Load(), t.graphs.misses.Load()
	if m := t.Metrics; m != nil {
		m.Searches.Inc()
	}
	defer func() {
		search.End()
		if m := t.Metrics; m != nil {
			m.SearchSeconds.ObserveDuration(time.Since(searchStart))
			m.BuildHits.Add(t.builds.hits.Load() - buildH0)
			m.BuildMisses.Add(t.builds.misses.Load() - buildM0)
			m.GraphHits.Add(t.graphs.hits.Load() - graphH0)
			m.GraphMisses.Add(t.graphs.misses.Load() - graphM0)
		}
	}()

	nodes, err := t.probeAll(ctx, space, points, tracer, search, &stats)
	var best *Candidate
	var trace []Candidate
	if err == nil {
		best, trace, err = t.expand(ctx, space, nodes, tracer, search, &stats)
	}
	t.publishStats(stats)
	if err != nil {
		return nil, nil, err
	}
	if best == nil {
		return nil, nil, fmt.Errorf("tuner: no feasible configuration in the search space")
	}
	return best, trace, nil
}

// pointKey renders a grid point's canonical span key: the zero-padded
// canonical grid index plus the paper's x-y-z candidate label. The key is a
// pure function of the enumeration, so span identities never depend on
// which worker evaluated the point.
func pointKey(i int, p gridPoint) string {
	tag := "base"
	if p.ckpt {
		tag = "mario"
	}
	s := fmt.Sprintf("%04d %s-%d-%d(%s)", i, p.scheme.Shape(), p.pp, p.mbs, tag)
	if p.pmode != "" {
		s += "+" + string(p.pmode)
	}
	return s
}

// buildFor memoizes (and freezes) the base schedule of a grid point; both
// the probe and the full evaluation go through it, so a point is built at
// most once per Tuner.
func (t *Tuner) buildFor(space Space, p gridPoint, micros int) (*pipeline.Schedule, error) {
	bk := buildKey{scheme: p.scheme, devices: p.pp, micros: micros, chunks: space.Chunks}
	return t.builds.do(bk, func() (*pipeline.Schedule, error) {
		s, err := scheme.Build(p.scheme, scheme.Config{Devices: p.pp, Micros: micros, Chunks: space.Chunks})
		if err != nil {
			return nil, err
		}
		// The memoized schedule is cloned by many grid points, possibly
		// concurrently; freezing it makes those first Clones read-only on
		// the shared copy-on-write marks.
		s.Freeze()
		return s, nil
	})
}

// assignmentFor computes a grid point's partitioning/placement assignment.
// Legacy axis-free points (pmode "") get nil; ModeUniform gets the even split
// with identity placement carrying the per-rank speeds; ModeCoOpt runs the
// place.CoOptimize fixpoint over the per-layer cost model (an estimator fit
// with one stage per layer, so the embedding and LM-head extras land on the
// first and last layer). The result is a pure function of the point and the
// space, so probe and evaluation agree and re-computation is race-free.
func (t *Tuner) assignmentFor(space Space, p gridPoint, sched *pipeline.Schedule) (*place.Assignment, error) {
	if p.pmode == "" {
		return nil, nil
	}
	pl := sched.Placement
	rankSpeed := place.RankSpeeds(space.DeviceSpeeds, pl.NumDevices(), p.dp)
	if p.pmode == place.ModeUniform {
		return place.Uniform(t.Prof.Model.Layers, pl, rankSpeed), nil
	}
	layers := t.Prof.Model.Layers
	perLayer := make([]int, layers)
	for i := range perLayer {
		perLayer[i] = 1
	}
	layerEst, err := t.Prof.EstimatorForPartition(perLayer, p.mbs, space.TP)
	if err != nil {
		return nil, err
	}
	return place.CoOptimize(place.NewLayerModel(layerEst), pl, rankSpeed, place.Options{
		MemCap:       space.DeviceMem,
		FrameworkMem: layerEst.FrameworkMem,
		InFlight:     inFlightPerStage(sched),
		BufBytes:     layerEst.ActP2PBytes + layerEst.GradP2PBytes,
	})
}

// inFlightPerStage counts, per stage, the forwards a device issues before the
// stage's first backward in the freshly built schedule — the retained
// micro-batch high water the checkpoint pass turns into stashes. The
// partitioner's memory cap multiplies the per-micro stash by this depth.
func inFlightPerStage(sched *pipeline.Schedule) []int {
	S := sched.NumStages()
	out := make([]int, S)
	fw := make([]int, S)
	done := make([]bool, S)
	for _, list := range sched.Lists {
		for i := range fw {
			fw[i], done[i] = 0, false
		}
		for _, in := range list {
			switch in.Kind {
			case pipeline.Forward, pipeline.CkptForward:
				if !done[in.Stage] {
					fw[in.Stage]++
				}
			case pipeline.Backward, pipeline.BackwardInput:
				done[in.Stage] = true
			}
		}
		for st, n := range fw {
			if n > out[st] {
				out[st] = n
			}
		}
	}
	for st, n := range out {
		if n < 1 {
			out[st] = 1
		}
	}
	return out
}

// estimatorFor builds the estimator a grid point is scored with. Legacy
// axis-free points keep the uniform-split estimator untouched; placement-axis
// points get the partitioned estimator steered by the assignment's layer
// split, with the per-rank speeds attached so the simulator (and the bounds)
// scale compute on slow ranks.
func (t *Tuner) estimatorFor(space Space, p gridPoint, sched *pipeline.Schedule, stages int) (*cost.Estimator, *place.Assignment, error) {
	asg, err := t.assignmentFor(space, p, sched)
	if err != nil {
		return nil, nil, err
	}
	if asg == nil {
		est, err := t.Prof.EstimatorFor(stages, p.mbs, space.TP)
		return est, nil, err
	}
	est, err := t.Prof.EstimatorForPartition(asg.LayersPerStage, p.mbs, space.TP)
	if err != nil {
		return nil, nil, err
	}
	est.DeviceSpeed = asg.RankSpeed
	return est, asg, nil
}

// preparePoint runs the structural prefix the probe and the evaluation share:
// the feasibility checks, the memoized schedule build (recorded as a build
// span under sp) and the estimator fit. ok is false for structurally
// impossible points: indivisible batch, scheme constraints (odd Chimera,
// indivisible Interleave, …), too few layers.
func (t *Tuner) preparePoint(space Space, p gridPoint, sp telemetry.Span) (sched *pipeline.Schedule, est *cost.Estimator, asg *place.Assignment, ok bool) {
	if space.GlobalBatch%(p.mbs*p.dp) != 0 {
		return nil, nil, nil, false
	}
	micros := space.GlobalBatch / (p.mbs * p.dp)
	stages := p.pp
	if p.scheme == pipeline.SchemeInterleave {
		stages = p.pp * space.Chunks
	}
	if micros < 1 || t.Prof.Model.Layers < stages {
		return nil, nil, nil, false
	}
	bs := sp.Child(telemetry.PhaseBuild, "")
	if bs.Live() {
		bs.Memo(fmt.Sprintf("%s|pp%d|u%d|c%d", p.scheme.Shape(), p.pp, micros, space.Chunks))
	}
	sched, err := t.buildFor(space, p, micros)
	bs.End()
	if err != nil {
		return nil, nil, nil, false
	}
	est, asg, err = t.estimatorFor(space, p, sched, stages)
	return sched, est, asg, err == nil
}

// evalTraced wraps evalPoint with a detached point span that the merge loop
// later attaches or discards. i is the point's canonical grid index.
func (t *Tuner) evalTraced(ctx context.Context, space Space, i int, p gridPoint, eng *sim.Simulator, tracer *telemetry.Tracer) pointResult {
	sp := tracer.Detached(telemetry.PhasePoint, pointKey(i, p))
	pr := t.evalPoint(ctx, space, p, eng, sp)
	sp.End()
	pr.span = sp
	return pr
}

// evalPoint scores a single grid point. Structurally impossible points
// (indivisible batch, scheme constraints, too few layers) come back
// infeasible; feasible points carry a fully simulated candidate
// (zero-throughput for OOM points).
//
// eng is the caller's reusable simulation engine (one per worker goroutine);
// nil falls back to the package-level Simulate.
//
// ctx bounds the slow part of the evaluation (the graph-tuner run); a
// cancelled context comes back as pointResult.err, never as a fake
// infeasibility.
//
// sp is the point's telemetry span (the zero Span when tracing is off):
// evalPoint records build/graph/sim child spans under it, tagging the
// memoized phases with their memo keys so Snapshot can normalize hit/miss
// attribution into canonical order.
func (t *Tuner) evalPoint(ctx context.Context, space Space, p gridPoint, eng *sim.Simulator, sp telemetry.Span) pointResult {
	if err := ctx.Err(); err != nil {
		return pointResult{err: err}
	}
	infeasible := pointResult{infeasible: true}
	sched, est, asg, ok := t.preparePoint(space, p, sp)
	if !ok {
		return infeasible
	}
	micros := sched.Micros
	bk := buildKey{scheme: p.scheme, devices: p.pp, micros: micros, chunks: space.Chunks}
	simOpts := sim.Options{DP: p.dp, MemLimit: space.DeviceMem}
	cand := &Candidate{Scheme: p.scheme, Ckpt: p.ckpt, PP: p.pp, DP: p.dp, MicroBatch: p.mbs, Micros: micros,
		PlaceMode: p.pmode, Place: asg}
	var res *sim.Result
	if p.ckpt {
		maxRounds := t.MaxRounds
		if maxRounds <= 0 {
			maxRounds = 8
		}
		gk := graphKey{bk: bk, mbs: p.mbs, dp: p.dp, tp: space.TP,
			memLimit: space.DeviceMem, maxRounds: maxRounds, split: t.SplitBackward,
			place: asg.Key()}
		memoTag := fmt.Sprintf("%s|pp%d|u%d|c%d|mbs%d|dp%d|tp%d|mem%g|r%d|split%t",
			p.scheme.Shape(), p.pp, micros, space.Chunks, p.mbs, p.dp, space.TP,
			space.DeviceMem, maxRounds, t.SplitBackward)
		if pk := asg.Key(); pk != "" {
			memoTag += "|pl" + pk
		}
		gs := sp.Child(telemetry.PhaseGraph, "")
		gs.Memo(memoTag)
		gv, err := t.graphs.do(gk, func() (graphVal, error) {
			// The round spans land under this point's graph span; if a
			// canonically earlier point shares the memo key, Snapshot moves
			// them there (the sequential attribution).
			gopts := graph.Options{Estimator: est, Sim: simOpts, MaxRounds: maxRounds,
				Span: gs, Metrics: t.Metrics}
			opt, r, err := graph.OptimizeContext(ctx, sched, gopts)
			if err != nil {
				return graphVal{}, err
			}
			if t.SplitBackward {
				if split, sr, err := graph.SplitBackward(opt, gopts); err == nil &&
					sr.Total < r.Total && !(simOpts.MemLimit > 0 && sr.OOM) {
					opt, r = split, sr
				}
			}
			// Frozen for the same reason as the build memo above.
			opt.Freeze()
			return graphVal{sched: opt, res: r}, nil
		})
		gs.End()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return pointResult{err: err}
			}
			return infeasible
		}
		cand.Schedule, res = gv.sched.Clone(), gv.res
	} else {
		ss := sp.Child(telemetry.PhaseSim, "")
		var r *sim.Result
		var err error
		if eng != nil {
			r, err = eng.Simulate(sched, est, simOpts)
		} else {
			r, err = sim.Simulate(sched, est, simOpts)
			t.Metrics.AddSims(1) // ephemeral engine: its counter dies with it
		}
		ss.End()
		if err != nil {
			return infeasible
		}
		cand.Schedule, res = sched.Clone(), r
	}
	cand.Result = res
	if res.OOM {
		cand.OOM = true
		cand.Throughput = 0 // Equation 1's memory penalty
	} else {
		cand.Throughput = res.SamplesPerSec * t.dpEff(p.dp)
	}
	return pointResult{cand: cand}
}

// Rank returns the trace sorted by descending throughput (stable on labels
// for determinism).
func Rank(trace []Candidate) []Candidate {
	out := append([]Candidate(nil), trace...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Throughput != out[j].Throughput {
			return out[i].Throughput > out[j].Throughput
		}
		return out[i].Label() < out[j].Label()
	})
	return out
}
