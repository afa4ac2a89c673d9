package tuner

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// This file implements the search core, one branch-and-bound walk over the
// grid. A cheap probe pass visits every point in canonical order —
// structural checks, memoized schedule build, an admissible throughput upper
// bound and an admissible memory lower bound — and the feasible points are
// then expanded best-first (highest bound first, provably-OOM points last).
// The best candidates surface early, so the bound prune fires on most of the
// remaining grid, and points whose memory lower bound already exceeds the
// device budget are skipped once any positive-throughput incumbent exists
// (their simulated throughput is provably zero under Equation 1's OOM
// penalty).
//
// Outcomes come from one of two sources — the local worker pool (evalLocal)
// or a planning fleet's shard waves (evalFleet) — and one merge loop decides
// every node in sorted order against the incumbent, so the result never
// depends on the source, the worker count or the fleet shape. The walk is
// exact: it returns the best candidate of the exhaustive canonical walk,
// with the same tie-break (highest throughput, earliest grid index among
// ties). Only the subset of points that get simulated differs; the
// ordering-invariant digest (SearchStats.invariant) is preserved.
// Space.NoPrune turns every decision into an expansion.

// bnbNode is one probed, structurally feasible grid point awaiting
// expansion.
type bnbNode struct {
	// idx is the point's canonical grid index (its enumerate position).
	idx int
	p   gridPoint
	// ub is the admissible throughput upper bound from bnbBound; the true
	// simulated throughput of the point can never exceed it.
	ub float64
	// memLB is the admissible per-device memory lower bound from
	// memLowerBound; the true simulated peak can never be below it.
	memLB float64
	// doomed marks points whose memLB already exceeds Space.DeviceMem:
	// their simulation is guaranteed OOM, hence zero throughput.
	doomed bool
}

// effUB is the expansion priority: doomed points sort last (their true
// throughput is zero regardless of ub), everything else by bound.
func (n bnbNode) effUB() float64 {
	if n.doomed {
		return 0
	}
	return n.ub
}

// Merge-time outcomes of a node.
const (
	exploreNode = iota
	memPruneNode
	boundPruneNode
)

// incumbent is the best candidate merged so far as the prune sees it: its
// throughput and canonical grid index.
type incumbent struct {
	tp  float64
	idx int
}

// decide classifies a node against the incumbent (nil before the first
// explored candidate). A node whose bound cannot beat the incumbent — or can
// at most tie it from a later canonical index, losing the tie-break — never
// changes the result; neither does a provably-OOM node once the incumbent is
// positive. The incumbent only improves as the merge proceeds, so a prune
// decided against an older incumbent still holds against every later one:
// that is what makes speculative worker-side skips exact.
func decide(nd bnbNode, inc *incumbent, noPrune bool) int {
	switch {
	case inc == nil || noPrune:
		return exploreNode
	case nd.doomed && inc.tp > 0:
		return memPruneNode
	case nd.ub < inc.tp || (nd.ub == inc.tp && nd.idx > inc.idx):
		return boundPruneNode
	}
	return exploreNode
}

// probePoint runs the cheap prefix of evalPoint (preparePoint) and computes
// the branch-and-bound bounds. It reports ok=false for exactly the points
// evalPoint rejects as structurally infeasible. It records no telemetry; the
// caller synthesizes the canonical spans.
func (t *Tuner) probePoint(space Space, p gridPoint) (nd bnbNode, ok bool) {
	nd = bnbNode{p: p, ub: math.Inf(1)}
	sched, est, _, ok := t.preparePoint(space, p, telemetry.Span{})
	if !ok {
		return nd, false
	}
	nd.ub = t.bnbBound(sched, est, p)
	nd.memLB = memLowerBound(sched, est)
	nd.doomed = space.DeviceMem > 0 && nd.memLB > space.DeviceMem
	return nd, true
}

// bnbBound returns an admissible throughput upper bound for the point: the
// samples per iteration over a makespan lower bound, times the DP
// efficiency. The makespan lower bound is the maximum of
//
//   - the busiest device's serial occupancy over the built list, where every
//     instruction contributes at least its launch overhead and compute
//     instructions their full latency (forwards, backwards — split-base
//     schemes their B/W halves at the simulator's exact durations — the
//     cool-down all-reduce and optimizer step). Every transformation the tuner may
//     apply afterwards only adds device work (checkpointing inserts
//     recomputes; split backward splits one backward into two halves whose
//     durations sum to more than the original; prepose only reorders; no
//     pass ever deletes a communication, all-reduce or optimizer
//     instruction), and
//
//   - the single-micro dependency chain: one micro-batch must traverse every
//     stage's forward, then every stage's backward (only the input-gradient
//     fraction when the split-backward pass may defer the weight half), plus
//     one launch-overhead + transfer latency per device-crossing stage
//     boundary in each direction (the simulator's eager sends deliver no
//     earlier than send start + overhead + transfer), plus the cool-down
//     launch overheads and optimizer step that follow the final backward on
//     its device. Multi-part placements take the cheapest part's crossing
//     count, which lower-bounds whichever part the micro actually rides.
func (t *Tuner) bnbBound(sched *pipeline.Schedule, est *cost.Estimator, p gridPoint) float64 {
	lo := est.LaunchOverhead
	var lb float64
	var stagesBuf []int
	for d, list := range sched.Lists {
		// Per-rank compute scaling, bit-exact with the simulator: SlowOf is
		// exactly 1 on homogeneous estimators, and the scaled terms below use
		// the same expressions as sim.ComputeBase and the simulator's
		// all-reduce duration, so the bound stays admissible on heterogeneous
		// clusters without any slack.
		slow := est.SlowOf(d)
		var busy float64
		for _, in := range list {
			switch in.Kind {
			case pipeline.Forward, pipeline.CkptForward:
				busy += lo + est.FwTime[in.Stage]*slow
			case pipeline.Backward:
				busy += lo + est.BwTime[in.Stage]*slow
			case pipeline.BackwardInput:
				busy += lo + est.BwTime[in.Stage]*est.BwSplitRatio*slow
			case pipeline.BackwardWeight:
				busy += lo + est.BwTime[in.Stage]*(1-est.BwSplitRatio)*slow
			case pipeline.SendAct, pipeline.RecvAct, pipeline.SendGrad, pipeline.RecvGrad:
				busy += lo
			case pipeline.AllReduce:
				stagesBuf = appendPlacementStages(stagesBuf[:0], sched.Placement, d)
				busy += lo + est.AllReduceTime(p.dp, stagesBuf)*slow
			case pipeline.OptimizerStep:
				busy += lo + est.OptTime*slow
			}
		}
		if busy > lb {
			lb = busy
		}
	}
	if chain := t.chainBound(sched, est, p); chain > lb {
		lb = chain
	}
	if lb <= 0 {
		return math.Inf(1)
	}
	samples := float64(sched.Micros * p.mbs * p.dp)
	return samples / lb * t.dpEff(p.dp)
}

// chainBound is the single-micro dependency-chain half of bnbBound. The
// chain is summed term by term in the order the simulator adds the same
// durations along the micro's path (forward, send overhead, transfer, next
// forward, …), never regrouped: float addition rounds monotonically, so a
// chain at least as long as the simulated path in every term cannot round
// above it, even when the path is the whole makespan.
func (t *Tuner) chainBound(sched *pipeline.Schedule, est *cost.Estimator, p gridPoint) float64 {
	lo := est.LaunchOverhead
	S := sched.NumStages()
	// The chain only needs the input-gradient half of each backward when the
	// weight half can be deferred off the critical path: on split-base
	// schemes (ZB-H1, DualPipe-D) always, otherwise when the split-backward
	// pass may rewrite the (checkpointed) candidate. Using the full backward
	// there would overestimate the lower bound and make the prune
	// inadmissible.
	r := 1.0
	if p.scheme.SplitsBackward() || (t.SplitBackward && p.ckpt) {
		r = min(max(est.BwSplitRatio, 0), 1)
	}
	pl := sched.Placement
	// Per-stage compute scaling: the micro rides some part, so the cheapest
	// part's slowdown lower-bounds whichever rank actually runs the stage
	// (exactly 1 on homogeneous estimators).
	minSlow := func(st int) float64 {
		mn := est.SlowOf(stageDevice(pl, 0, st))
		for part := 1; part < pl.NumParts(); part++ {
			mn = min(mn, est.SlowOf(stageDevice(pl, part, st)))
		}
		return mn
	}
	// After the chain's final backward, its device still runs the cool-down
	// AllReduce (payload lower-bounded at zero) and OptimizerStep. The
	// optimizer runs on whichever rank finishes the chain, so the fastest
	// rank's slowdown keeps the term admissible.
	optSlow := est.SlowOf(0)
	for d := 1; d < len(sched.Lists); d++ {
		optSlow = min(optSlow, est.SlowOf(d))
	}
	actComm, gradComm := est.CommTime(est.ActP2PBytes), est.CommTime(est.GradP2PBytes)
	// Multi-part placements take the cheapest part's chain, which
	// lower-bounds whichever part the micro actually rides.
	chain := math.Inf(1)
	for part := 0; part < pl.NumParts(); part++ {
		var c float64
		for st := 0; st < S; st++ {
			c += lo + est.FwTime[st]*minSlow(st)
			if st+1 < S && stageDevice(pl, part, st) != stageDevice(pl, part, st+1) {
				c += lo // the send's launch overhead, then the transfer
				c += actComm
			}
		}
		for st := S - 1; st >= 0; st-- {
			c += lo + r*est.BwTime[st]*minSlow(st)
			if st > 0 && stageDevice(pl, part, st) != stageDevice(pl, part, st-1) {
				c += lo
				c += gradComm
			}
		}
		c += lo
		c += lo + est.OptTime*optSlow
		chain = min(chain, c)
	}
	return chain
}

// stageDevice resolves the device owning a stage along one partition's
// chain, resolving interleaved chunk ids from the stage (a micro-batch
// changes partition at chunk boundaries there).
func stageDevice(pl pipeline.Placement, part, st int) int {
	if ip, ok := pl.(pipeline.InterleavedPlacement); ok {
		return pl.Device(ip.PartOfStage(st), st)
	}
	return pl.Device(part, st)
}

// appendPlacementStages appends the distinct stages whose weights the device
// holds (the sim package's deviceStages, replicated for bound computation).
func appendPlacementStages(out []int, pl pipeline.Placement, dev int) []int {
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

// memLowerBound returns an admissible lower bound on the worst device's peak
// memory: static memory (framework + owned training state) plus the
// smallest allocation the device's first forward-like instruction can make
// (the smaller of the full and stashed footprint over its stages). Memory
// simulation starts at the static level, nothing releases below it before
// the first forward, and no graph pass removes every forward from a device,
// so the true simulated peak can never be below the bound.
func memLowerBound(sched *pipeline.Schedule, est *cost.Estimator) float64 {
	var worst float64
	var stagesBuf []int
	for d := range sched.Lists {
		stagesBuf = appendPlacementStages(stagesBuf[:0], sched.Placement, d)
		static := est.FrameworkMem
		first := math.Inf(1)
		for _, st := range stagesBuf {
			static += est.WeightBytes[st]
			a := est.ActFull[st]
			if est.ActStash[st] < a {
				a = est.ActStash[st]
			}
			if a < first {
				first = a
			}
		}
		if math.IsInf(first, 1) {
			first = 0
		}
		if v := static + first; v > worst {
			worst = v
		}
	}
	return worst
}

// pruneInfeasible records one structurally infeasible grid point: the
// stats/metrics counters plus the canonical prune span. The probe pass and
// the merge loop both funnel structural prunes through it.
func (t *Tuner) pruneInfeasible(idx int, p gridPoint, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) {
	stats.Pruned++
	t.publishStats(*stats)
	if m := t.Metrics; m != nil {
		m.PointsPruned.Inc()
	}
	ps := tracer.Detached(telemetry.PhasePoint, pointKey(idx, p))
	ps.SetStr("result", "infeasible")
	ps.End()
	ps.AttachTo(search)
}

// probeAll runs the probe pass: every grid point is probed sequentially in
// canonical order (attaching the structural-prune spans), and the feasible
// nodes come back sorted best-first — descending bound, canonical index
// among ties, provably-OOM points last.
func (t *Tuner) probeAll(ctx context.Context, space Space, points []gridPoint, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) ([]bnbNode, error) {
	nodes := make([]bnbNode, 0, len(points))
	for i, p := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nd, ok := t.probePoint(space, p)
		if !ok {
			t.pruneInfeasible(i, p, tracer, search, stats)
			continue
		}
		nd.idx = i
		nodes = append(nodes, nd)
	}
	sort.Slice(nodes, func(a, b int) bool {
		ua, ub := nodes[a].effUB(), nodes[b].effUB()
		if ua != ub {
			return ua > ub
		}
		return nodes[a].idx < nodes[b].idx
	})
	return nodes, nil
}

// expand is the merge loop: it takes the sorted nodes' outcomes from the
// fleet when Tuner.Sharder is set and from the local pool otherwise, and
// folds them into the search state in sorted order. Every prune is decided
// here against the canonical incumbent, never against worker-time state, and
// an outcome without a verdict (a skip the incumbent cannot confirm, a lost
// shard point, a stale cancellation from another search's memo entry) is
// re-evaluated inline. Locally simulated points keep their recorded span
// subtree; every other span is synthesized from the decision alone, which
// keeps the canonical span tree independent of the worker count and the
// fleet shape.
func (t *Tuner) expand(ctx context.Context, space Space, nodes []bnbNode, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) (*Candidate, []Candidate, error) {
	var best *Candidate
	var inc atomic.Pointer[incumbent] // published to the local workers
	var fl FleetStats
	type traceEnt struct {
		idx int
		c   Candidate
	}
	var ents []traceEnt
	// Fleet point spans carry no evaluation children: the per-phase
	// telemetry lives on the workers, and the local fallback must not make
	// the tree depend on fleet health.
	evalTracer := tracer
	if t.Sharder != nil {
		evalTracer = nil
	}
	synth := func(nd bnbNode) telemetry.Span {
		ps := tracer.Detached(telemetry.PhasePoint, pointKey(nd.idx, nd.p))
		ps.End()
		return ps
	}

	merge := func(nd bnbNode, pr pointResult) error {
		sp := pr.span
		if err := ctx.Err(); err != nil {
			sp.Discard()
			return err
		}
		cur := inc.Load()
		switch decide(nd, cur, space.NoPrune) {
		case memPruneNode:
			sp.Discard()
			stats.MemPruned++
			t.publishStats(*stats)
			if m := t.Metrics; m != nil {
				m.PointsMemPruned.Inc()
			}
			ps := synth(nd)
			ps.SetStr("result", "memory_pruned")
			ps.SetFloat("mem_lb", nd.memLB)
			ps.AttachTo(search)
			return nil
		case boundPruneNode:
			sp.Discard()
			stats.BoundPruned++
			t.publishStats(*stats)
			if m := t.Metrics; m != nil {
				m.PointsBoundPruned.Inc()
			}
			ps := synth(nd)
			ps.SetStr("result", "bound_pruned")
			ps.SetFloat("ub", nd.ub)
			ps.AttachTo(search)
			return nil
		}
		if pr.err != nil || (!pr.infeasible && pr.cand == nil) {
			sp.Discard()
			fl.Forced++
			pr = t.evalTraced(ctx, space, nd.idx, nd.p, nil, evalTracer)
			sp = pr.span
			if pr.err != nil {
				sp.Discard()
				return pr.err
			}
		}
		if pr.infeasible {
			// The probe's structural prefix passed but the full evaluation
			// still failed (a graph-pass error): a structural prune.
			sp.Discard()
			t.pruneInfeasible(nd.idx, nd.p, tracer, search, stats)
			return nil
		}
		c := pr.cand
		stats.Explored++
		if c.OOM {
			stats.OOMRejected++
		}
		ents = append(ents, traceEnt{idx: nd.idx, c: *c})
		improved := cur == nil || c.Throughput > cur.tp || (c.Throughput == cur.tp && nd.idx < cur.idx)
		if improved {
			cc := *c
			best = &cc
			inc.Store(&incumbent{tp: c.Throughput, idx: nd.idx})
			stats.Improved++
		}
		t.publishStats(*stats)
		if m := t.Metrics; m != nil {
			m.PointsExplored.Inc()
			if c.OOM {
				m.PointsOOM.Inc()
			}
			if improved {
				m.PointsImproved.Inc()
			}
		}
		if !sp.Live() {
			sp = synth(nd)
		}
		if c.OOM {
			sp.SetStr("result", "oom")
		} else {
			sp.SetStr("result", "explored")
		}
		sp.SetFloat("ub", nd.ub)
		sp.SetFloat("throughput", c.Throughput)
		if improved {
			sp.SetBool("improved", true)
		}
		sp.AttachTo(search)
		if t.Progress != nil {
			t.Progress(*c, *best)
		}
		return nil
	}

	var err error
	if t.Sharder != nil {
		err = t.evalFleet(ctx, space, nodes, &inc, &fl, merge)
		t.publishFleet(fl)
		fl.addTo(t.Metrics)
	} else {
		err = t.evalLocal(ctx, space, nodes, &inc, tracer, merge)
	}

	sort.Slice(ents, func(a, b int) bool { return ents[a].idx < ents[b].idx })
	var trace []Candidate
	if len(ents) > 0 {
		trace = make([]Candidate, len(ents))
		for i := range ents {
			trace[i] = ents[i].c
		}
	}
	return best, trace, err
}

// evalLocal is the local outcome source: it evaluates nodes on Space.Workers
// goroutines (inline for one) and hands every outcome to emit in node order
// as soon as it is ready, so merging overlaps evaluation. A worker skips a
// node that decide already prunes against the published incumbent; the
// merge confirms every such skip.
func (t *Tuner) evalLocal(ctx context.Context, space Space, nodes []bnbNode, inc *atomic.Pointer[incumbent], tracer *telemetry.Tracer, emit func(bnbNode, pointResult) error) error {
	eval := func(nd bnbNode, eng *sim.Simulator) pointResult {
		if err := ctx.Err(); err != nil {
			return pointResult{err: err}
		}
		if decide(nd, inc.Load(), space.NoPrune) != exploreNode {
			return pointResult{}
		}
		return t.evalTraced(ctx, space, nd.idx, nd.p, eng, tracer)
	}
	if space.Workers <= 1 || len(nodes) <= 1 {
		eng := &sim.Simulator{}
		defer func() { t.Metrics.AddSims(eng.Sims) }()
		for _, nd := range nodes {
			if err := emit(nd, eval(nd, eng)); err != nil {
				return err
			}
		}
		return nil
	}
	workers := min(space.Workers, len(nodes))
	results := make([]pointResult, len(nodes))
	ready := make([]chan struct{}, len(nodes))
	jobs := make(chan int, len(nodes))
	for j := range nodes {
		ready[j] = make(chan struct{})
		jobs <- j
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &sim.Simulator{} // per-worker engine: a Simulator is not goroutine-safe
			for j := range jobs {
				// Every dequeued job closes its ready channel, cancelled or
				// not: the merger must never block on a skipped node.
				results[j] = eval(nodes[j], eng)
				close(ready[j])
			}
			t.Metrics.AddSims(eng.Sims)
		}()
	}
	var err error
	for j := range nodes {
		<-ready[j]
		if err == nil {
			err = emit(nodes[j], results[j])
		}
	}
	wg.Wait()
	return err
}
