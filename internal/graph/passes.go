// Package graph implements Mario's graph tuner (§5.1): four optimization
// passes that tessellate activation checkpointing into a pipeline schedule by
// identifying and substituting instruction patterns. Passes 1–3 are local
// list rewrites; pass 4 (prepose-forward) is guided by the lightweight
// simulator, accepting only moves that reduce the simulated makespan.
package graph

import (
	"context"
	"fmt"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// ApplyCheckpoint is pass 1: apply activation checkpointing to all paired
// forward and backward instructions. Every Forward becomes a CkptForward and
// a Recompute is inserted immediately before the corresponding Backward, so
// only one activation replica per stage is live at a time.
func ApplyCheckpoint(s *pipeline.Schedule) {
	ApplyCheckpointStages(s, func(int) bool { return true })
}

// ApplyCheckpointStages applies pass 1 selectively: only stages for which
// keep returns true are checkpointed. This is the knob AdaPipe-style
// selective recomputation turns (§8 related work); Mario itself uses the
// all-stages form and lets remove-redundancy revert the useless cases.
func ApplyCheckpointStages(s *pipeline.Schedule, keep func(stage int) bool) {
	for d, list := range s.Lists {
		// Count the Recompute insertions first so the rewritten list is
		// allocated exactly once at its final size; this runs on Optimize's
		// per-call path, where append regrowth is measurable GC pressure.
		extra := 0
		for _, in := range list {
			if (in.Kind == pipeline.Backward || in.Kind == pipeline.BackwardInput) && keep(in.Stage) {
				extra++
			}
		}
		out := make([]pipeline.Instr, 0, len(list)+extra)
		for _, in := range list {
			switch {
			case in.Kind == pipeline.Forward && keep(in.Stage):
				in.Kind = pipeline.CkptForward
				out = append(out, in)
			case (in.Kind == pipeline.Backward || in.Kind == pipeline.BackwardInput) && keep(in.Stage):
				// On split-backward schedules the recompute precedes the
				// input-gradient half — the B/W boundary is a legal split
				// point, and the deferred weight-gradient half reads only the
				// stash its BI left, never the recomputed activations.
				out = append(out,
					pipeline.Instr{Kind: pipeline.Recompute, Micro: in.Micro, Part: in.Part, Stage: in.Stage},
					in,
				)
			default:
				out = append(out, in)
			}
		}
		s.SetList(d, out)
	}
	s.Checkpointed = true
}

// OverlapRecompute is pass 2: prepose each Recompute past the RecvGrad
// instructions that precede it, so the recomputation runs concurrently with
// the next device's backward instead of serialising behind the gradient
// receive. (If RC_i were left after RG_i it would transitively wait for
// BW_i on the next device, losing the overlap — §5.1.)
func OverlapRecompute(s *pipeline.Schedule) {
	for d := range s.Lists {
		list := s.Lists[d]
		mutable := false
		for i := 0; i < len(list); i++ {
			if list[i].Kind != pipeline.Recompute {
				continue
			}
			j := i
			for j > 0 && list[j-1].Kind == pipeline.RecvGrad {
				if !mutable {
					list = s.MutableList(d)
					mutable = true
				}
				list[j-1], list[j] = list[j], list[j-1]
				j--
			}
		}
	}
}

// RemoveRedundancy is pass 3: when a CkptForward and its Backward are
// adjacent (no other compute instruction between them on the device), the
// activation would be dropped and instantly restored; revert the pair to a
// plain Forward and delete the Recompute.
func RemoveRedundancy(s *pipeline.Schedule) {
	S := s.NumStages()
	cells := s.Micros * S
	// Flat position indices per (micro, stage) cell, shared across devices,
	// replace the old per-device key→index maps. Parts are verified on use;
	// no supported placement puts two parts of the same (micro, stage) on one
	// device, and a part mismatch only skips the (inapplicable) rewrite.
	bwPos := make([]int32, cells)
	rcPos := make([]int32, cells)
	saPos := make([]int32, cells)
	var dropped []bool
	for d := range s.Lists {
		list := s.Lists[d]
		for c := 0; c < cells; c++ {
			bwPos[c], rcPos[c], saPos[c] = -1, -1, -1
		}
		for i, in := range list {
			if in.Micro < 0 {
				continue
			}
			switch in.Kind {
			case pipeline.Backward, pipeline.BackwardInput:
				// The input-gradient half is the backward anchor on split
				// schedules: it is what consumes the (re)computed activations.
				bwPos[in.Micro*S+in.Stage] = int32(i)
			case pipeline.Recompute:
				rcPos[in.Micro*S+in.Stage] = int32(i)
			case pipeline.SendAct:
				saPos[in.Micro*S+in.Stage] = int32(i)
			}
		}
		if cap(dropped) >= len(list) {
			dropped = dropped[:len(list)]
			for i := range dropped {
				dropped[i] = false
			}
		} else {
			dropped = make([]bool, len(list))
		}
		nDropped := 0
		mutable := false
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.CkptForward {
				continue
			}
			c := in.Micro*S + in.Stage
			bwIdx := int(bwPos[c])
			if bwIdx < i || list[bwIdx].Part != in.Part { // bwIdx < i covers the -1 "absent" case
				continue
			}
			rcIdx := int(rcPos[c])
			hasRC := rcIdx >= 0 && list[rcIdx].Part == in.Part
			redundant := true
			for k := i + 1; k < bwIdx; k++ {
				if list[k].Kind.IsCompute() && !(hasRC && k == rcIdx) {
					redundant = false
					break
				}
			}
			if !redundant {
				continue
			}
			if !mutable {
				list = s.MutableList(d)
				mutable = true
			}
			list[i].Kind = pipeline.Forward
			if hasRC {
				dropped[rcIdx] = true
				nDropped++
			}
			// The send no longer reads a checkpoint staging buffer.
			if saIdx := int(saPos[c]); saIdx >= 0 && list[saIdx].Part == in.Part {
				list[saIdx].Buffered = false
			}
		}
		if nDropped > 0 {
			out := list[:0]
			for i, in := range list {
				if !dropped[i] {
					out = append(out, in)
				}
			}
			s.SetList(d, out)
		}
	}
}

// Options parameterises the simulator-guided passes and the overall
// Optimize driver.
type Options struct {
	// Estimator supplies per-instruction latencies and memory for the
	// simulator; required by PreposeForward and Optimize.
	Estimator *cost.Estimator
	// Sim configures the acceptance simulations (memory limit, DP, link
	// semantics).
	Sim sim.Options
	// MaxPrepose bounds the number of forward groups preposed per device;
	// zero means no bound beyond the schedule length.
	MaxPrepose int
	// MaxRounds bounds the iterative pass applications; zero means 16.
	MaxRounds int
	// Span, when live, parents the run's telemetry: OptimizeContext records
	// one PhaseRound child per simulator-guided prepose round, with
	// deterministic attributes (moves, improvement, makespan). The zero
	// Span disables tracing at zero cost.
	Span telemetry.Span
	// Metrics, when non-nil, receives round and simulation counts.
	Metrics *telemetry.SearchMetrics
}

// Optimize applies the full pass pipeline — apply-checkpoint once, then
// overlap-recompute, remove-redundancy and prepose-forward iteratively until
// the simulated makespan stops improving. It returns the optimized schedule
// (the input is not modified) and its simulation result.
func Optimize(s *pipeline.Schedule, opt Options) (*pipeline.Schedule, *sim.Result, error) {
	return OptimizeContext(context.Background(), s, opt)
}

// OptimizeContext is Optimize with cancellation: the cheap structural passes
// always run, but the simulator-guided prepose rounds — the expensive part —
// check ctx between rounds and between candidate simulations, and a
// cancelled context aborts the call with ctx's error. A completed
// OptimizeContext is byte-identical to Optimize.
func OptimizeContext(ctx context.Context, s *pipeline.Schedule, opt Options) (*pipeline.Schedule, *sim.Result, error) {
	if opt.Estimator == nil {
		return nil, nil, fmt.Errorf("graph: Optimize requires an estimator")
	}
	cur := s.Clone()
	ApplyCheckpoint(cur)
	OverlapRecompute(cur)
	RemoveRedundancy(cur)
	// remove-redundancy may expose new overlap opportunities and vice
	// versa; they are cheap, so run them to a (two-round) fixpoint before
	// the guided pass.
	OverlapRecompute(cur)
	eng := acquireEngines()
	defer eng.release()
	defer func() { opt.Metrics.AddSims(eng.sims()) }()
	// Candidate acceptance only compares makespans and peaks, so the inner
	// loop always runs without timeline recording; the caller-visible result
	// is re-derived with the requested options at the end.
	inner := opt
	inner.Sim.NoTimeline = true
	best, err := eng.main.Simulate(cur, opt.Estimator, inner.Sim)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: simulating checkpointed schedule: %w", err)
	}
	rounds := opt.MaxRounds
	if rounds <= 0 {
		rounds = 16
	}
	// Total prepose budget across rounds: MaxPrepose extra forward groups
	// per device, unlimited when zero.
	budget := -1
	if opt.MaxPrepose > 0 {
		budget = opt.MaxPrepose * cur.NumDevices()
	}
	for r := 0; r < rounds; r++ {
		if budget == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rs := opt.Span.Child(telemetry.PhaseRound, fmt.Sprintf("%02d", r+1))
		next, nextRes, moves, err := preposeRound(ctx, cur, best, inner, budget, eng)
		if err != nil {
			rs.Discard()
			return nil, nil, err
		}
		opt.Metrics.AddGraphRounds(1)
		rs.SetBool("improved", nextRes != best && nextRes.Total < best.Total)
		rs.SetInt("moves", int64(moves))
		rs.SetFloat("makespan", nextRes.Total)
		rs.End()
		if nextRes == best {
			break
		}
		if moves > 0 && budget > 0 {
			budget -= moves
			if budget < 0 {
				budget = 0
			}
		}
		if nextRes.Total >= best.Total {
			break
		}
		cur, best = next, nextRes
		// Recycle list buffers of candidates this round retired.
		eng.endRound(cur)
	}
	if err := pipeline.Validate(cur); err != nil {
		return nil, nil, fmt.Errorf("graph: optimized schedule invalid: %w", err)
	}
	if !opt.Sim.NoTimeline {
		best, err = eng.main.Simulate(cur, opt.Estimator, opt.Sim)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: simulating optimized schedule: %w", err)
		}
	}
	return cur, best, nil
}
