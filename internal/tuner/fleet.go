package tuner

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mario/internal/sim"
	"mario/internal/telemetry"
)

// This file implements the fleet outcome source: the expansion of bnb.go
// distributed across a planning fleet. The coordinator runs the probe pass
// once, and evalFleet dispatches the sorted nodes in waves of shard batches
// through a ShardDispatcher — an HTTP fan-out in production
// (internal/serve), an in-process evaluator in tests. Each wave carries the
// global incumbent throughput so workers skip shard points the incumbent
// already dooms.
//
// The outcomes feed the same merge loop a local search uses, which replays
// decide() against the canonical incumbent, so the best candidate, the
// trace, the SearchStats and the synthesized span tree are byte-identical
// for every fleet shape (workers × shards, including 1×1) and the marshaled
// plan is byte-identical to a single-node run. Worker-side skips are exact
// for the same reason local worker skips are: a broadcast incumbent is the
// true throughput of a candidate whose bound sorts it before every node it
// prunes, so the merge loop's own incumbent always confirms the skip; the
// unreachable disagreement case falls back to a local evaluation.

// DefaultShardChunk is the number of sorted nodes a shard receives per
// dispatch wave when the dispatcher does not choose its own batch size.
// Small enough that the incumbent refreshes while the search is still
// exploring high-bound nodes, large enough to amortize a dispatch
// round-trip.
const DefaultShardChunk = 8

// Shard outcome statuses (ShardOutcome.Status).
const (
	// ShardExplored marks a fully simulated point; the outcome carries the
	// candidate.
	ShardExplored = "explored"
	// ShardSkipped marks a point the worker declined to simulate because
	// the dispatched incumbent already doomed it (bound below the
	// incumbent, or provably OOM while the incumbent is positive).
	ShardSkipped = "skipped"
	// ShardInfeasible marks a point whose full evaluation failed even
	// though the coordinator's probe passed (a graph-pass error); the
	// merge counts it as a structural prune, as the local strategies do.
	ShardInfeasible = "infeasible"
)

// ShardPoint is one probed, structurally feasible grid point a coordinator
// ships to a worker: the canonical grid index plus the admissible bounds
// the probe pass computed. Bounds travel with the point so workers prune
// against the shared incumbent without re-probing. The type is wire-safe:
// an infinite upper bound (no useful bound) is carried as Unbounded
// rather than +Inf, which JSON cannot encode.
type ShardPoint struct {
	// Idx is the canonical grid index (the point's enumerate position).
	Idx int `json:"idx"`
	// UB is the admissible throughput upper bound (bnbBound); zero with
	// Unbounded set when the bound is infinite.
	UB float64 `json:"ub"`
	// Unbounded marks points whose throughput bound is +Inf.
	Unbounded bool `json:"unbounded,omitempty"`
	// MemLB is the admissible per-device memory lower bound.
	MemLB float64 `json:"mem_lb"`
	// Doomed marks points whose MemLB already exceeds the device budget:
	// their simulated throughput is provably zero.
	Doomed bool `json:"doomed,omitempty"`
}

// shardPointOf converts a probed node into its wire form.
func shardPointOf(nd bnbNode) ShardPoint {
	sp := ShardPoint{Idx: nd.idx, UB: nd.ub, MemLB: nd.memLB, Doomed: nd.doomed}
	if math.IsInf(sp.UB, 1) {
		sp.UB, sp.Unbounded = 0, true
	}
	return sp
}

// ub returns the node-side view of the bound (+Inf when Unbounded).
func (p ShardPoint) ub() float64 {
	if p.Unbounded {
		return math.Inf(1)
	}
	return p.UB
}

// ShardOutcome is a worker's verdict on one dispatched shard point.
type ShardOutcome struct {
	// Idx echoes the point's canonical grid index.
	Idx int `json:"idx"`
	// Status is ShardExplored, ShardSkipped or ShardInfeasible.
	Status string `json:"status"`
	// Cand is the simulated candidate (ShardExplored only). It round-trips
	// byte-stably through the plan JSON codec, so a merged remote candidate
	// marshals identically to a locally computed one.
	Cand *Candidate `json:"cand,omitempty"`
}

// ShardDispatcher fans shard batches out to a planning fleet. Implementations
// must be safe for concurrent Dispatch calls (the coordinator dispatches the
// shards of one wave in parallel). Dispatch errors are not fatal: the
// coordinator evaluates the failed batch locally, so the search result is
// independent of fleet health.
type ShardDispatcher interface {
	// Shards is the number of partitions per wave (usually the worker
	// count); values < 1 mean 1.
	Shards() int
	// ChunkSize is the number of sorted nodes per shard per wave; values
	// < 1 mean DefaultShardChunk.
	ChunkSize() int
	// Dispatch evaluates one shard's batch, in the given order, pruning
	// against the dispatched incumbent (hasIncumbent reports whether one
	// exists yet). It returns one outcome per point, keyed by Idx.
	Dispatch(ctx context.Context, shard int, points []ShardPoint, incumbent float64, hasIncumbent bool) ([]ShardOutcome, error)
}

// FleetStats describes how the most recent fleet search divided its work.
// Unlike SearchStats these counters depend on the fleet shape (more shards
// mean staler incumbents and more remote explorations), so they are kept
// out of the plan JSON — plans stay byte-identical to a single-node run —
// and exported as mario_search_fleet_* series instead.
type FleetStats struct {
	// Waves counts dispatch rounds; Broadcasts the waves that shipped a
	// global incumbent to the workers.
	Waves, Broadcasts int
	// Dispatched counts shard batches handed to the dispatcher and
	// Fallbacks the batches the coordinator evaluated locally after a
	// dispatch error.
	Dispatched, Fallbacks int
	// RemoteExplored, RemoteSkipped and RemoteInfeasible count the
	// outcomes workers returned, by status (a fallback batch's points are
	// not among them). RemoteSkipped is the incumbent-sharing payoff:
	// points a worker never simulated because the broadcast incumbent
	// already doomed them.
	RemoteExplored, RemoteSkipped, RemoteInfeasible int
	// Forced counts skipped outcomes the merge loop could not confirm and
	// re-evaluated locally. Always zero for a dispatcher that follows the
	// skip protocol; the counter exists to make violations visible.
	Forced int
}

// FleetSnapshot returns a consistent copy of the fleet counters; the
// race-safe read while a search is running.
func (t *Tuner) FleetSnapshot() FleetStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.Fleet
}

func (t *Tuner) publishFleet(f FleetStats) {
	t.statsMu.Lock()
	t.Fleet = f
	t.statsMu.Unlock()
}

// addTo folds the fleet counters into the mario_search_fleet_* series.
func (f FleetStats) addTo(m *telemetry.SearchMetrics) {
	if m == nil {
		return
	}
	m.FleetWaves.Add(int64(f.Waves))
	m.FleetBroadcasts.Add(int64(f.Broadcasts))
	m.FleetDispatched.Add(int64(f.Dispatched))
	m.FleetFallbacks.Add(int64(f.Fallbacks))
	m.FleetRemoteExplored.Add(int64(f.RemoteExplored))
	m.FleetRemoteSkipped.Add(int64(f.RemoteSkipped))
	m.FleetRemoteInfeasible.Add(int64(f.RemoteInfeasible))
	m.FleetForced.Add(int64(f.Forced))
}

// EvalShard is the worker half of the fleet protocol: it evaluates one
// dispatched batch in order, skipping points decide() prunes against the
// incumbent and advancing a batch-local incumbent as it explores. A worker
// knows no grid index for the incumbent, so it never prunes a bound tie. It
// touches neither SearchStats nor spans — outcome accounting is the
// coordinator's job, so worker results are position-independent.
func (t *Tuner) EvalShard(ctx context.Context, space Space, points []ShardPoint, incumbentTP float64, hasIncumbent bool) ([]ShardOutcome, error) {
	space = space.withDefaults()
	if space.Devices <= 0 || space.GlobalBatch <= 0 {
		return nil, fmt.Errorf("tuner: devices (%d) and global batch (%d) must be positive", space.Devices, space.GlobalBatch)
	}
	grid := enumerate(space)
	eng := &sim.Simulator{}
	out := make([]ShardOutcome, 0, len(points))
	var inc *incumbent
	if hasIncumbent {
		inc = &incumbent{tp: incumbentTP, idx: math.MaxInt}
	}
	for _, sp := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sp.Idx < 0 || sp.Idx >= len(grid) {
			return nil, fmt.Errorf("tuner: shard point index %d outside grid of %d points", sp.Idx, len(grid))
		}
		nd := bnbNode{idx: sp.Idx, ub: sp.ub(), memLB: sp.MemLB, doomed: sp.Doomed}
		if decide(nd, inc, space.NoPrune) != exploreNode {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardSkipped})
			continue
		}
		pr := t.evalPoint(ctx, space, grid[sp.Idx], eng, telemetry.Span{})
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.infeasible {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardInfeasible})
			continue
		}
		out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardExplored, Cand: pr.cand})
		if inc == nil || pr.cand.Throughput > inc.tp {
			inc = &incumbent{tp: pr.cand.Throughput, idx: math.MaxInt}
		}
	}
	t.Metrics.AddSims(eng.Sims)
	return out, nil
}

// evalFleet is the fleet outcome source. It walks the sorted nodes in waves
// of Shards×ChunkSize: within a wave, sorted position j belongs to shard
// j mod Shards, every non-empty shard batch is dispatched concurrently with
// the current incumbent (none under Space.NoPrune), and the outcomes are
// handed to emit in sorted order. A failed dispatch is evaluated by the
// local source instead, so the result never depends on fleet health — only
// the FleetStats do.
func (t *Tuner) evalFleet(ctx context.Context, space Space, nodes []bnbNode, inc *atomic.Pointer[incumbent], fl *FleetStats, emit func(bnbNode, pointResult) error) error {
	d := t.Sharder
	shards := max(d.Shards(), 1)
	chunk := d.ChunkSize()
	if chunk < 1 {
		chunk = DefaultShardChunk
	}
	for start := 0; start < len(nodes); start += shards * chunk {
		wave := nodes[start:min(start+shards*chunk, len(nodes))]
		if err := ctx.Err(); err != nil {
			return err
		}
		tp, hasInc := 0.0, false
		if cur := inc.Load(); cur != nil && !space.NoPrune {
			tp, hasInc = cur.tp, true
			fl.Broadcasts++
		}
		fl.Waves++
		batches := make([][]bnbNode, shards)
		for j, nd := range wave {
			batches[j%shards] = append(batches[j%shards], nd)
		}
		results := make([][]ShardOutcome, shards)
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for s, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			pts := make([]ShardPoint, len(batch))
			for i, nd := range batch {
				pts[i] = shardPointOf(nd)
			}
			fl.Dispatched++
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[s], errs[s] = d.Dispatch(ctx, s, pts, tp, hasInc)
			}()
		}
		wg.Wait()
		byIdx := make(map[int]pointResult, len(wave))
		for s, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			if errs[s] != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
				// The shard is lost (worker down, wire error): evaluate the
				// batch locally, so the merged result is the one a healthy
				// fleet would have produced.
				fl.Fallbacks++
				t.evalLocal(ctx, space, batch, inc, nil, func(nd bnbNode, pr pointResult) error {
					byIdx[nd.idx] = pr
					return nil
				})
				continue
			}
			for _, oc := range results[s] {
				switch oc.Status {
				case ShardExplored:
					fl.RemoteExplored++
					if oc.Cand != nil {
						byIdx[oc.Idx] = pointResult{cand: oc.Cand}
					}
				case ShardSkipped:
					fl.RemoteSkipped++
				case ShardInfeasible:
					fl.RemoteInfeasible++
					byIdx[oc.Idx] = pointResult{infeasible: true}
				}
			}
		}
		t.publishFleet(*fl)
		for _, nd := range wave {
			if err := emit(nd, byIdx[nd.idx]); err != nil {
				return err
			}
		}
	}
	return nil
}
