package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// oracleRun is the outcome of the exhaustive reference walk.
type oracleRun struct {
	best   *Candidate
	trace  []Candidate
	points []gridPoint // the explored grid points, parallel to trace
	pruned int
	err    error
}

// oracle is the exhaustive reference the search core is tested against: it
// calls evalPoint on every enumerate() point in canonical order and keeps
// the highest throughput, the lowest grid index breaking ties. It shares no
// code with the core beyond the point evaluation itself.
func oracle(tn *Tuner, sp Space) oracleRun {
	sp = sp.withDefaults()
	var o oracleRun
	for _, p := range enumerate(sp) {
		pr := tn.evalPoint(context.Background(), sp, p, nil, telemetry.Span{})
		if pr.infeasible {
			o.pruned++
			continue
		}
		o.trace = append(o.trace, *pr.cand)
		o.points = append(o.points, p)
		if o.best == nil || pr.cand.Throughput > o.best.Throughput {
			o.best = pr.cand
		}
	}
	if o.best == nil {
		o.err = errors.New("tuner: no feasible configuration in the search space")
	}
	return o
}

// out renders the oracle's result in the strategy-comparison form.
func (o oracleRun) out() stratOut {
	out := stratOut{pruned: o.pruned, feasible: len(o.trace)}
	if o.err != nil {
		out.err = o.err.Error()
		return out
	}
	out.best = candString(*o.best)
	return out
}

// runOracle runs the oracle on a fresh tuner (optionally mutated).
func runOracle(sp Space, mut func(*Tuner)) oracleRun {
	tn := newTuner()
	if mut != nil {
		mut(tn)
	}
	return oracle(tn, sp)
}

// pointOf reconstructs the canonical grid coordinate of a traced candidate.
func pointOf(c Candidate) gridPoint {
	return gridPoint{scheme: c.Scheme, ckpt: c.Ckpt, pp: c.PP, dp: c.DP, mbs: c.MicroBatch}
}

// maxPeak returns the worst per-device simulated peak of a candidate.
func maxPeak(c Candidate) float64 {
	var peak float64
	if c.Result != nil {
		for _, p := range c.Result.PeakMem {
			if p > peak {
				peak = p
			}
		}
	}
	return peak
}

// runSpace runs one Search on a fresh tuner (optionally mutated) and captures
// the comparable outputs, like runSearch but for an arbitrary space.
func runSpace(t *testing.T, sp Space, mut func(*Tuner)) searchRun {
	t.Helper()
	tn := newTuner()
	if mut != nil {
		mut(tn)
	}
	var run searchRun
	tn.Progress = func(c Candidate, best Candidate) {
		run.progress = append(run.progress, fmt.Sprintf("%s|%016x -> %s|%016x",
			c.Label(), math.Float64bits(c.Throughput), best.Label(), math.Float64bits(best.Throughput)))
	}
	best, trace, err := tn.Search(sp)
	if err != nil {
		t.Fatalf("Search(%+v): %v", sp, err)
	}
	run.best = candString(*best)
	for _, c := range trace {
		run.trace = append(run.trace, candString(c))
	}
	run.stats = tn.Stats
	return run
}

// stratOut is the prune-independent outcome of a Search: the error text,
// the best candidate rendered byte-exactly, and the ordering-invariant stats
// digest. Traces and ordering-variant counters legitimately differ between
// a pruned search and the exhaustive walk, so they are excluded.
type stratOut struct {
	err      string
	best     string
	pruned   int
	feasible int
}

func runStrategy(sp Space, mut func(*Tuner)) stratOut {
	tn := newTuner()
	if mut != nil {
		mut(tn)
	}
	return searchOut(tn, sp)
}

// searchOut runs one Search on tn and captures its stratOut.
func searchOut(tn *Tuner, sp Space) stratOut {
	best, _, err := tn.Search(sp)
	out := stratOut{}
	out.pruned, out.feasible = tn.Stats.invariant()
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.best = candString(*best)
	return out
}

// TestBnBMatchesGridArgmax is the headline equivalence contract: on the same
// space, the search (the default), the search under NoPrune and the
// exhaustive oracle return the byte-identical best candidate and partition
// the grid into the same structural-prune / feasible sets, and the NoPrune
// search's trace is the oracle's, candidate for candidate.
func TestBnBMatchesGridArgmax(t *testing.T) {
	cases := []struct {
		name  string
		sp    Space
		split bool
	}{
		{"detSpace", detSpace(1), false},
		{"split-backward", detSpace(1), true},
		{"gpipe-chimera", Space{
			Devices:      8,
			GlobalBatch:  32,
			Schemes:      []pipeline.Scheme{pipeline.SchemeGPipe, pipeline.SchemeChimera},
			MicroBatches: []int{1, 2},
			DeviceMem:    cost.A100_40G.MemBytes,
			Workers:      1,
		}, false},
		{"no-mem-limit", Space{
			Devices:      8,
			GlobalBatch:  64,
			MicroBatches: []int{2, 4},
			Workers:      1,
		}, false},
		{"zero-bubble", Space{
			Devices:      8,
			GlobalBatch:  64,
			Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD},
			MicroBatches: []int{1, 2},
			DeviceMem:    cost.A100_40G.MemBytes,
			Workers:      1,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := func(tn *Tuner) { tn.SplitBackward = tc.split }

			bnbSp := tc.sp
			bnb := runStrategy(bnbSp, mut)

			orc := runOracle(tc.sp, mut)
			grid := orc.out()

			fullSp := tc.sp
			fullSp.NoPrune = true
			fullTn := newTuner()
			mut(fullTn)
			fullBest, fullTrace, err := fullTn.Search(fullSp)
			if err != nil {
				t.Fatal(err)
			}
			if len(fullTrace) != len(orc.trace) {
				t.Fatalf("NoPrune trace has %d candidates, oracle %d", len(fullTrace), len(orc.trace))
			}
			for i := range fullTrace {
				if got, want := candString(fullTrace[i]), candString(orc.trace[i]); got != want {
					t.Errorf("NoPrune trace[%d] differs from the oracle's\n got: %s\nwant: %s", i, got, want)
					break
				}
			}
			full := stratOut{best: candString(*fullBest)}
			full.pruned, full.feasible = fullTn.Stats.invariant()

			if bnb.err != "" || grid.err != "" {
				t.Fatalf("unexpected errors: bnb=%q oracle=%q", bnb.err, grid.err)
			}
			if bnb.best != grid.best {
				t.Errorf("bnb best differs from oracle best:\n   bnb: %s\noracle: %s", bnb.best, grid.best)
			}
			if bnb.best != full.best {
				t.Errorf("bnb best differs from exhaustive best:\n bnb: %s\nfull: %s", bnb.best, full.best)
			}
			for _, o := range []struct {
				name string
				out  stratOut
			}{{"oracle", grid}, {"full", full}} {
				if bnb.pruned != o.out.pruned || bnb.feasible != o.out.feasible {
					t.Errorf("invariant digest differs bnb=(%d,%d) %s=(%d,%d)",
						bnb.pruned, bnb.feasible, o.name, o.out.pruned, o.out.feasible)
				}
			}
			if exhaustive := fullTn.Stats.Explored; bnb.feasible != exhaustive {
				t.Errorf("bnb accounts for %d feasible points, exhaustive explored %d", bnb.feasible, exhaustive)
			}
		})
	}
}

// memPressureSpace builds a 1F1B space whose pp=4 points are provably doomed
// (their admissible memory lower bound exceeds the budget) while at least one
// pp=8 configuration still fits: the budget is placed between the smallest
// simulated pp=8 peak and the pp=4 memory floor. It returns the space with
// DeviceMem set.
func memPressureSpace(t *testing.T) Space {
	t.Helper()
	sp := Space{
		Devices:      8,
		GlobalBatch:  32,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		MicroBatches: []int{1, 2},
		Workers:      1,
	}
	spd := sp.withDefaults()
	probe := newTuner()
	nd4, ok := probe.probePoint(spd, gridPoint{scheme: pipeline.Scheme1F1B, pp: 4, dp: 2, mbs: 1})
	if !ok {
		t.Fatal("pp=4 probe point is structurally infeasible")
	}
	ref := newTuner()
	full := sp
	full.NoPrune = true // no DeviceMem: unconstrained reference peaks
	_, trace, err := ref.Search(full)
	if err != nil {
		t.Fatal(err)
	}
	p8 := math.Inf(1)
	for _, c := range trace {
		if c.PP == 8 && c.Result != nil {
			if pk := maxPeak(c); pk < p8 {
				p8 = pk
			}
		}
	}
	if !(p8 < nd4.memLB) {
		t.Fatalf("fixture premise broken: smallest pp=8 peak %g is not below the pp=4 memory floor %g", p8, nd4.memLB)
	}
	sp.DeviceMem = (p8 + nd4.memLB) / 2
	return sp
}

// TestBnBMemoryPruneDeterministic puts the memory-feasibility prune under the
// determinism contract: on a space engineered so the pp=4 column provably
// OOMs, the search mem-prunes those points without simulating them, returns
// the oracle's best candidate, and emits byte-identical outputs for every
// worker count.
func TestBnBMemoryPruneDeterministic(t *testing.T) {
	sp := memPressureSpace(t)

	base := runSpace(t, sp, nil)
	if base.stats.MemPruned == 0 {
		t.Fatalf("engineered memory pressure pruned nothing: stats %+v", base.stats)
	}
	if base.stats.Explored == 0 {
		t.Fatalf("memory pressure left nothing explored: stats %+v", base.stats)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		spw := sp
		spw.Workers = w
		got := runSpace(t, spw, nil)
		if got.stats != base.stats {
			t.Errorf("workers=%d: stats %+v, want %+v", w, got.stats, base.stats)
		}
		if got.best != base.best {
			t.Errorf("workers=%d: best differs\n got: %s\nwant: %s", w, got.best, base.best)
		}
		if len(got.trace) != len(base.trace) {
			t.Fatalf("workers=%d: trace length %d, want %d", w, len(got.trace), len(base.trace))
		}
		for i := range got.trace {
			if got.trace[i] != base.trace[i] {
				t.Errorf("workers=%d: trace[%d] differs", w, i)
				break
			}
		}
		if len(got.progress) != len(base.progress) {
			t.Fatalf("workers=%d: %d progress callbacks, want %d", w, len(got.progress), len(base.progress))
		}
	}

	grid := runOracle(sp, nil).out()
	if grid.err != "" {
		t.Fatal(grid.err)
	}
	if base.best != grid.best {
		t.Errorf("mem-pruned bnb best differs from oracle best:\n   bnb: %s\noracle: %s", base.best, grid.best)
	}
	p, f := base.stats.invariant()
	if p != grid.pruned || f != grid.feasible {
		t.Errorf("invariant digest differs: bnb=(%d,%d) oracle=(%d,%d)", p, f, grid.pruned, grid.feasible)
	}
}

// TestBnBBoundAdmissible checks each bound in isolation against ground truth
// from an exhaustive search: for every simulated point, the throughput upper
// bound is at least the simulated throughput, the memory lower bound is at
// most the simulated worst-device peak, and a doomed verdict implies the
// simulation really OOMs. Run for both backward modes, since the split pass
// changes what transformations the bound must stay admissible under.
func TestBnBBoundAdmissible(t *testing.T) {
	for _, split := range []bool{false, true} {
		name := "base"
		if split {
			name = "split-backward"
		}
		t.Run(name, func(t *testing.T) {
			tn := newTuner()
			tn.SplitBackward = split
			sp := detSpace(1)
			sp.NoPrune = true
			_, trace, err := tn.Search(sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace) == 0 {
				t.Fatal("exhaustive search produced an empty trace")
			}
			spd := sp.withDefaults()
			for _, c := range trace {
				nd, ok := tn.probePoint(spd, pointOf(c))
				if !ok {
					t.Errorf("simulated point %s probes as structurally infeasible", c.Label())
					continue
				}
				if nd.ub < c.Throughput {
					t.Errorf("%s: upper bound %g below simulated throughput %g (bound not admissible)",
						c.Label(), nd.ub, c.Throughput)
				}
				if math.IsInf(nd.ub, 1) {
					t.Errorf("%s: probe produced an infinite bound for a feasible point", c.Label())
				}
				if c.Result != nil {
					if pk := maxPeak(c); nd.memLB > pk {
						t.Errorf("%s: memory lower bound %g exceeds simulated peak %g (bound not admissible)",
							c.Label(), nd.memLB, pk)
					}
				}
				if nd.doomed && !c.OOM {
					t.Errorf("%s: probe declared the point doomed but the simulation did not OOM", c.Label())
				}
			}
		})
	}
}

// TestBnBPrunedNodesCannotWin exhaustively verifies every pruning decision in
// a sampled space: any point the exhaustive walk simulated but branch-and-
// bound skipped must lose the canonical tie-break (higher throughput, then
// smaller grid index) against the returned best — i.e. no pruned node could
// have changed the argmax.
func TestBnBPrunedNodesCannotWin(t *testing.T) {
	sp := detSpace(1)
	bnbTn := newTuner()
	bnbBest, bnbTrace, err := bnbTn.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	fullSp := sp
	fullSp.NoPrune = true
	fullTn := newTuner()
	fullBest, fullTrace, err := fullTn.Search(fullSp)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bnbBest) != candString(*fullBest) {
		t.Fatalf("argmax differs:\n bnb: %s\nfull: %s", candString(*bnbBest), candString(*fullBest))
	}
	idx := make(map[gridPoint]int)
	for i, p := range enumerate(sp.withDefaults()) {
		idx[p] = i
	}
	explored := make(map[gridPoint]bool, len(bnbTrace))
	for _, c := range bnbTrace {
		explored[pointOf(c)] = true
	}
	bestIdx, ok := idx[pointOf(*bnbBest)]
	if !ok {
		t.Fatal("best candidate is not a grid point")
	}
	prunedSeen := 0
	for _, c := range fullTrace {
		p := pointOf(c)
		if explored[p] {
			continue
		}
		prunedSeen++
		if c.Throughput > bnbBest.Throughput ||
			(c.Throughput == bnbBest.Throughput && idx[p] < bestIdx) {
			t.Errorf("pruned point %s (idx %d, throughput %g) beats the returned best %s (idx %d, throughput %g)",
				c.Label(), idx[p], c.Throughput, bnbBest.Label(), bestIdx, bnbBest.Throughput)
		}
	}
	if want := bnbTn.Stats.BoundPruned + bnbTn.Stats.MemPruned; prunedSeen != want {
		t.Errorf("full trace shows %d pruned points, stats count %d", prunedSeen, want)
	}
	if prunedSeen == 0 {
		t.Log("note: branch-and-bound pruned nothing on this space")
	}
}

// TestBnBEdgeCases is the table-driven parity check on degenerate spaces:
// fully infeasible grids (search and oracle must return the identical error),
// dp=1 (PP pinned to the device count), a single-device single-stage
// pipeline, an all-OOM budget (the argmax falls back to the canonically first
// zero-throughput candidate) and a one-sample batch.
func TestBnBEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		sp      Space
		wantErr string
	}{
		{
			// GlobalBatch 7 with mbs=2: no (mbs, dp) divides the batch.
			name: "all-infeasible",
			sp: Space{
				Devices: 8, GlobalBatch: 7,
				MicroBatches: []int{2},
				DeviceMem:    cost.A100_40G.MemBytes,
				Workers:      1,
			},
			wantErr: "tuner: no feasible configuration in the search space",
		},
		{
			name: "dp-one",
			sp: Space{
				Devices: 8, GlobalBatch: 16,
				MinPP:        8,
				MicroBatches: []int{1, 2},
				DeviceMem:    cost.A100_40G.MemBytes,
				Workers:      1,
			},
		},
		{
			name: "single-device",
			sp: Space{
				Devices: 1, GlobalBatch: 4,
				Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
				MicroBatches: []int{1, 2},
				DeviceMem:    cost.A100_40G.MemBytes,
				Workers:      1,
			},
		},
		{
			// A one-byte budget: every candidate OOMs, throughput is zero
			// everywhere, and the canonical tie-break alone picks the winner.
			name: "all-oom",
			sp: Space{
				Devices: 8, GlobalBatch: 64,
				MicroBatches: []int{1, 2, 4},
				DeviceMem:    1,
				Workers:      1,
			},
		},
		{
			name: "one-sample-batch",
			sp: Space{
				Devices: 8, GlobalBatch: 1,
				MicroBatches: []int{1},
				DeviceMem:    cost.A100_40G.MemBytes,
				Workers:      1,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bnb := runStrategy(tc.sp, nil)
			grid := runOracle(tc.sp, nil).out()
			if bnb.err != grid.err {
				t.Fatalf("error parity broken: bnb=%q oracle=%q", bnb.err, grid.err)
			}
			if tc.wantErr != "" && bnb.err != tc.wantErr {
				t.Fatalf("error = %q, want %q", bnb.err, tc.wantErr)
			}
			if bnb.best != grid.best {
				t.Errorf("best differs:\n   bnb: %s\noracle: %s", bnb.best, grid.best)
			}
			if bnb.pruned != grid.pruned || bnb.feasible != grid.feasible {
				t.Errorf("invariant digest differs: bnb=(%d,%d) oracle=(%d,%d)",
					bnb.pruned, bnb.feasible, grid.pruned, grid.feasible)
			}
		})
	}
}

// TestBnBExplorationEfficiency pins the PR's acceptance criterion on the
// paper's 64-device GPT3-13B grid (the BenchmarkTunerSearch space, >200
// configurations): branch-and-bound must simulate at most half the points
// the exhaustive walk does while returning the byte-identical argmax.
func TestBnBExplorationEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid; skipped with -short")
	}
	prof := &profile.Profiler{
		Model: cost.GPT3_13B, HW: cost.A100_40G,
		Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
	}
	space := Space{
		Devices:      64,
		GlobalBatch:  512,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe},
		MicroBatches: []int{1, 2, 4, 8, 16, 32},
		DeviceMem:    cost.A100_40G.MemBytes,
		Workers:      runtime.GOMAXPROCS(0),
	}
	fullTn := &Tuner{Prof: prof, MaxRounds: 1}
	fullSp := space
	fullSp.NoPrune = true
	fullBest, _, err := fullTn.Search(fullSp)
	if err != nil {
		t.Fatal(err)
	}
	bnbTn := &Tuner{Prof: prof, MaxRounds: 1}
	bnbBest, _, err := bnbTn.Search(space)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bnbBest) != candString(*fullBest) {
		t.Errorf("argmax differs:\n bnb: %s\nfull: %s", candString(*bnbBest), candString(*fullBest))
	}
	fullN, bnbN := fullTn.Stats.Explored, bnbTn.Stats.Explored
	t.Logf("exhaustive explored %d; bnb explored %d, bound-pruned %d, mem-pruned %d",
		fullN, bnbN, bnbTn.Stats.BoundPruned, bnbTn.Stats.MemPruned)
	if 2*bnbN > fullN {
		t.Errorf("bnb explored %d of %d points, want at most half", bnbN, fullN)
	}
	p, f := bnbTn.Stats.invariant()
	pF, fF := fullTn.Stats.invariant()
	if p != pF || f != fF {
		t.Errorf("invariant digest differs: bnb=(%d,%d) full=(%d,%d)", p, f, pF, fF)
	}
}

// FuzzBnBArgmaxEquivalence is the differential fuzzer of the search core:
// over randomized small spaces — every scheme family, an optional 0.8×
// device with placement auto, the split-backward pass — the search with one
// and three workers and the in-process two-shard fleet must each return the
// oracle's byte-identical best plan, error text and ordering-invariant stats
// digest. On every point the oracle explores it also checks the probe's
// bounds as properties: the throughput bound is at least the simulated
// throughput, the memory bound at most the simulated worst peak, and a
// doomed point really OOMs.
func FuzzBnBArgmaxEquivalence(f *testing.F) {
	f.Add(uint8(2), uint16(32), uint8(3), uint8(1), uint8(0), false, uint8(0))
	f.Add(uint8(1), uint16(16), uint8(5), uint8(15), uint8(3), true, uint8(0))
	f.Add(uint8(0), uint16(7), uint8(2), uint8(2), uint8(200), false, uint8(0))
	f.Add(uint8(2), uint16(64), uint8(1), uint8(4), uint8(1), true, uint8(0))
	f.Add(uint8(2), uint16(31), uint8(3), uint8(49), uint8(2), false, uint8(4))
	f.Add(uint8(1), uint16(15), uint8(3), uint8(17), uint8(0), true, uint8(1))
	f.Fuzz(func(t *testing.T, dSel uint8, gb uint16, mbsMask, schemeMask, memSel uint8, split bool, slowSel uint8) {
		devices := []int{2, 4, 8}[int(dSel)%3]
		batch := 1 + int(gb)%64
		var mbs []int
		for i, m := range []int{1, 2, 3, 4, 8} {
			if mbsMask&(1<<i) != 0 {
				mbs = append(mbs, m)
			}
		}
		if len(mbs) == 0 {
			mbs = []int{1, 2}
		}
		all := []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave,
			pipeline.SchemeGPipe, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD}
		var schemes []pipeline.Scheme
		for i, s := range all {
			if schemeMask&(1<<i) != 0 {
				schemes = append(schemes, s)
			}
		}
		var mem float64
		if memSel > 0 {
			mem = cost.A100_40G.MemBytes / float64(1+int(memSel)%8)
		}
		var speeds []float64
		if slowSel > 0 {
			speeds = make([]float64, devices)
			for i := range speeds {
				speeds[i] = 1
			}
			speeds[int(slowSel-1)%devices] = 0.8
		}
		sp := Space{
			Devices:      devices,
			GlobalBatch:  batch,
			Schemes:      schemes, // nil selects the default set
			MicroBatches: mbs,
			DeviceMem:    mem,
			Workers:      1,
			DeviceSpeeds: speeds,
		}
		prof := &profile.Profiler{
			Model: cost.LLaMA2_3B, HW: cost.A100_40G,
			Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
		}
		mk := func() *Tuner { return &Tuner{Prof: prof, MaxRounds: 2, SplitBackward: split} }

		ref := mk()
		orc := oracle(ref, sp)
		want := orc.out()
		spd := sp.withDefaults()
		for i, c := range orc.trace {
			nd, ok := ref.probePoint(spd, orc.points[i])
			switch {
			case !ok:
				t.Fatalf("%s: explored point probes as structurally infeasible", c.Label())
			case nd.ub < c.Throughput:
				t.Fatalf("%s: upper bound %g below simulated throughput %g (space %+v)", c.Label(), nd.ub, c.Throughput, sp)
			case nd.memLB > maxPeak(c):
				t.Fatalf("%s: memory lower bound %g exceeds simulated peak %g (space %+v)", c.Label(), nd.memLB, maxPeak(c), sp)
			case nd.doomed && !c.OOM:
				t.Fatalf("%s: probe declared the point doomed but the simulation did not OOM (space %+v)", c.Label(), sp)
			}
		}

		variants := []struct {
			name string
			run  func() stratOut
		}{
			{"workers=1", func() stratOut { return searchOut(mk(), sp) }},
			{"workers=3", func() stratOut {
				s := sp
				s.Workers = 3
				return searchOut(mk(), s)
			}},
			{"fleet-2-shards", func() stratOut {
				tn := mk()
				tn.Sharder = newHarness(sp, mk, 2, 2, 2)
				return searchOut(tn, sp)
			}},
		}
		for _, v := range variants {
			got := v.run()
			switch {
			case got.err != want.err:
				t.Fatalf("%s: error %q, oracle %q (space %+v)", v.name, got.err, want.err, sp)
			case got.best != want.best:
				t.Fatalf("%s: argmax differs (space %+v):\n   got: %s\noracle: %s", v.name, sp, got.best, want.best)
			case got.pruned != want.pruned || got.feasible != want.feasible:
				t.Fatalf("%s: invariant digest (%d,%d), oracle (%d,%d)", v.name, got.pruned, got.feasible, want.pruned, want.feasible)
			}
		}
	})
}
