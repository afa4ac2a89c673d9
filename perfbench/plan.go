package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
	"mario/internal/tuner"
)

// The paper-scale job every plan and run workload uses: GPT3-13B on 64
// devices, global batch 128, 40 GB per device, scheme Auto. Workers: 1 makes
// the search serial, so layer self times add up to the wall time and the
// work counters repeat exactly.
const (
	paperModel   = "GPT3-13B"
	paperDevices = 64
	paperBatch   = 128
	paperMemory  = "40G"
	// qualityIters is how many emulated iterations the quality figures use.
	qualityIters = 4
)

func paperConfig() mario.Config {
	return mario.Config{PipelineScheme: "Auto", GlobalBatchSize: paperBatch, NumDevices: paperDevices,
		MemoryPerDevice: paperMemory, Workers: 1}
}

// optimizePaper plans the paper job with a fresh Config, so profiling is
// paid as every user pays it.
func optimizePaper(conf mario.Config) (*mario.Plan, error) {
	return mario.Optimize(conf, mario.Model(paperModel))
}

// planRef is what one plan is checked against.
type planRef struct {
	plan  *mario.Plan
	best  []byte // json.Marshal(plan.Best)
	stats tuner.SearchStats
	trace int
}

func newPlanRef(p *mario.Plan) (*planRef, error) {
	best, err := json.Marshal(p.Best)
	if err != nil {
		return nil, fmt.Errorf("encoding best candidate: %w", err)
	}
	return &planRef{plan: p, best: best, stats: p.SearchStats, trace: len(p.Trace)}, nil
}

// check compares a plan with the reference: the winning candidate's bytes,
// the search statistics and the trace length. The full SavePlan bytes of
// this job are 87 MB and take seconds to encode, so the full comparison
// runs once per traced run (see fullPlanDigest) instead of on every op.
func (r *planRef) check(p *mario.Plan) error {
	best, err := json.Marshal(p.Best)
	if err != nil {
		return fmt.Errorf("encoding best candidate: %w", err)
	}
	switch {
	case !bytes.Equal(best, r.best):
		return wrongf("winner %s differs from the first plan's %s", p.Best.Label(), r.plan.Best.Label())
	case p.SearchStats != r.stats:
		return wrongf("search stats %+v differ from the first plan's %+v", p.SearchStats, r.stats)
	case len(p.Trace) != r.trace:
		return wrongf("trace has %d candidates, the first plan %d", len(p.Trace), r.trace)
	}
	return nil
}

// resimulate re-simulates the winner's schedule with the plan's own profiler
// and checks it reproduces the planner's result exactly.
func resimulate(p *mario.Plan) error {
	b := p.Best
	if b.Place != nil {
		return nil // partitioned estimators are the tuner's own; checked by its tests
	}
	est, err := p.Profiler.EstimatorFor(b.Schedule.NumStages(), b.MicroBatch, 1)
	if err != nil {
		return fmt.Errorf("re-simulation estimator: %w", err)
	}
	mem, err := mario.ParseMemory(paperMemory)
	if err != nil {
		return err
	}
	res, err := sim.Simulate(b.Schedule, est, sim.Options{DP: b.DP, MemLimit: mem, NoTimeline: true})
	if err != nil {
		return fmt.Errorf("re-simulation: %w", err)
	}
	if res.Total != b.Result.Total || res.SamplesPerSec != b.Result.SamplesPerSec || res.OOM != b.OOM {
		return wrongf("re-simulated iteration %.9g s (%.9g samples/s) differs from the plan's %.9g s (%.9g samples/s)",
			res.Total, res.SamplesPerSec, b.Result.Total, b.Result.SamplesPerSec)
	}
	return nil
}

// fullPlanDigest encodes the plan with SavePlan and returns its SHA-256.
func fullPlanDigest(p *mario.Plan) (string, error) {
	h := sha256.New()
	if err := mario.SavePlan(h, p); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// planQuality executes a plan on the emulator and reports its quality.
func planQuality(p *mario.Plan) (quality, error) {
	rep, err := mario.Run(p, qualityIters)
	if err != nil {
		return quality{}, fmt.Errorf("emulating %s: %w", p.Best.Label(), err)
	}
	return quality{
		planSamples:     p.Best.Throughput,
		measuredSamples: rep.SamplesPerSec,
		predictErrPct:   100 * math.Abs(p.Best.Result.Total-rep.IterTime) / rep.IterTime,
		peakGB:          rep.PeakMemMax / 1e9,
	}, nil
}

// runPlan is the plan-gpt3-13b-64 workload: repeated cold Optimize calls of
// the paper job. Its inputs do not depend on the seed.
func runPlan(e *env) (*report, error) {
	rep := &report{}
	ref, setup, err := repeatSetup(func() (*planRef, error) {
		p, err := optimizePaper(paperConfig())
		if err != nil {
			return nil, err
		}
		if err := resimulate(p); err != nil {
			return nil, err
		}
		return newPlanRef(p)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setup = setup
	logf("plan %s: %.6g samples/s predicted, stats %+v", ref.plan.Best.Label(), ref.plan.Best.Throughput, ref.stats)
	if e.traced() {
		if err := tracePlan(e, rep, ref); err != nil {
			return nil, err
		}
		return rep, nil
	}
	closedLoop(e, rep, func(i int) (sample, error) {
		var p *mario.Plan
		var err error
		s := measure(func() {
			e.spans.timed(i+1, 0, "mario.Optimize", func() { p, err = optimizePaper(paperConfig()) })
		})
		if err != nil {
			return s, err
		}
		return s, ref.check(p)
	})
	logf("plan_cpu_ms %.3f ms, plan_p50_ms %.3f ms wall, over %d samples", ms(median(rep.cpu)), ms(median(rep.lat)), len(rep.lat))
	q, err := planQuality(ref.plan)
	if err != nil {
		return nil, err
	}
	rep.quality = q
	logf("plan_samples_per_s %.9g samples/s", q.planSamples)
	return rep, nil
}

// planCounters are the work counts of one traced plan that repeat exactly
// at Workers: 1; two traced plans of the same code must agree on all of
// them.
type planCounters struct {
	stats                      tuner.SearchStats
	sims, rounds               float64
	buildMisses, graphMisses   float64
	buildHits, graphHits       float64
	fleetWaves, fleetShards    float64
	fleetFallbacks, fleetForce float64
	spans                      int
}

// tracePlan is the traced plan run: plans alternate between traced
// (Config.Tracer and Config.Metrics set) and untraced, and after every
// traced plan the probe pass is replayed from its trace. Per-layer metrics
// are medians over the traced plans.
func tracePlan(e *env, rep *report, ref *planRef) error {
	rep.layers = layers{}
	var traced, untraced []time.Duration
	perOp := map[string][]float64{}
	add := func(k string, v float64) { perOp[k] = append(perOp[k], v) }
	var first *planCounters
	deadline := time.Now().Add(e.seconds)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		op := i + 1
		rep.attempted++
		if i%2 == 1 {
			var p *mario.Plan
			var err error
			d := e.spans.timed(op, 0, "mario.Optimize", func() { p, err = optimizePaper(paperConfig()) })
			if err != nil {
				return fmt.Errorf("untraced plan %d: %w", op, err)
			}
			countWrong(rep, op, ref.check(p))
			untraced = append(untraced, d)
			continue
		}
		reg := telemetry.NewRegistry()
		conf := paperConfig()
		conf.Metrics = telemetry.NewSearchMetrics(reg)
		conf.Tracer = telemetry.New(fmt.Sprintf("plan-%d", op)).WithMetrics(conf.Metrics)
		var p *mario.Plan
		var err error
		root := e.spans.begin(op, 0, "plan")
		d := e.spans.timed(op, root, "mario.Optimize", func() { p, err = optimizePaper(conf) })
		e.spans.end(root)
		if err != nil {
			return fmt.Errorf("traced plan %d: %w", op, err)
		}
		countWrong(rep, op, ref.check(p))
		traced = append(traced, d)
		tr := conf.Tracer.Snapshot()
		series, err := registrySeries(reg)
		if err != nil {
			return err
		}
		c := countersOf(p, series, tr)
		if first == nil {
			first = &c
		} else if c != *first {
			countWrong(rep, op, wrongf("work counters %+v differ from the first traced plan's %+v", c, *first))
		}
		self := phaseSelf(tr)
		rootDur := 0.0
		if len(tr.Roots) > 0 {
			rootDur = ms(tr.Roots[0].Dur())
		}
		rp, err := replayProbe(e, op, p, tr)
		if err != nil {
			return err
		}
		add("graph.self_ms", self[telemetry.PhaseGraph])
		add("graph.round_self_ms", self[telemetry.PhaseRound])
		add("sim.self_ms", self[telemetry.PhaseSim])
		add("tuner.search_self_ms", self[telemetry.PhaseSearch])
		add("tuner.bound_self_ms", self[telemetry.PhaseBound])
		add("tuner.other_self_ms", ms(d)-rootDur+self[telemetry.PhaseOptimize]+self[telemetry.PhasePoint]+self[telemetry.PhaseBuild])
		unattributed := self[telemetry.PhaseSearch] - rp.buildMs - rp.estimatorMs
		add("tuner.search_unattributed_ms", unattributed)
		add("tuner.unattributed_share", unattributed/ms(d))
		add("profile.fit_ms", rp.fitMs)
		add("scheme.build_ms", rp.buildMs)
		add("pipeline.validate_ms", rp.validateMs)
		if i == 0 {
			setPlanCounts(rep.layers, c, rp)
		}
	}
	for k, vs := range perOp {
		rep.layers.set(k, medianF(vs))
	}
	rep.layers.set("telemetry.overhead_ms", ms(median(traced))-ms(median(untraced)))
	full, delta, err := simDirect(e, ref.plan)
	if err != nil {
		return err
	}
	rep.layers.set("sim.full_us", full)
	rep.layers.set("sim.delta_us", delta)
	rep.layers.set("sim.bubble_max", bubbleMax(ref.plan.Best.Result))
	refDigest, err := fullPlanDigest(ref.plan)
	if err != nil {
		return err
	}
	p, err := optimizePaper(paperConfig())
	if err != nil {
		return err
	}
	rep.attempted++
	lastDigest, err := fullPlanDigest(p)
	if err != nil {
		return err
	}
	if lastDigest != refDigest {
		countWrong(rep, rep.attempted, wrongf("SavePlan digest %s differs from the first plan's %s", lastDigest, refDigest))
	}
	logf("plan digest sha256:%s", refDigest)
	return nil
}

func countersOf(p *mario.Plan, series map[string]float64, tr *telemetry.Trace) planCounters {
	return planCounters{
		stats:          p.SearchStats,
		sims:           series["mario_search_sims_total"],
		rounds:         series["mario_search_graph_rounds_total"],
		buildMisses:    series[`mario_search_build_memo_total{result="miss"}`],
		buildHits:      series[`mario_search_build_memo_total{result="hit"}`],
		graphMisses:    series[`mario_search_graph_memo_total{result="miss"}`],
		graphHits:      series[`mario_search_graph_memo_total{result="hit"}`],
		fleetWaves:     series["mario_search_fleet_waves_total"],
		fleetShards:    series["mario_search_fleet_shards_total"],
		fleetFallbacks: series["mario_search_fleet_fallbacks_total"],
		fleetForce:     series["mario_search_fleet_forced_total"],
		spans:          len(tr.Spans()),
	}
}

// setPlanCounts records the exactly repeating counts of one traced plan.
func setPlanCounts(l layers, c planCounters, rp replay) {
	st := c.stats
	feasible := float64(st.Explored + st.BoundPruned + st.MemPruned)
	l.set("tuner.points", feasible+float64(st.Pruned))
	l.set("tuner.explored", float64(st.Explored))
	l.set("tuner.bound_pruned", float64(st.BoundPruned))
	l.set("tuner.mem_pruned", float64(st.MemPruned))
	l.set("tuner.infeasible", float64(st.Pruned))
	l.set("tuner.explore_ratio", ratio(float64(st.Explored), feasible))
	l.set("tuner.build_memo_hit_ratio", ratio(c.buildHits, c.buildHits+c.buildMisses))
	l.set("tuner.graph_memo_hit_ratio", ratio(c.graphHits, c.graphHits+c.graphMisses))
	l.set("tuner.fleet_waves", c.fleetWaves)
	l.set("tuner.fleet_shards", c.fleetShards)
	l.set("tuner.fleet_fallbacks", c.fleetFallbacks)
	l.set("tuner.fleet_forced", c.fleetForce)
	l.set("graph.calls", c.graphMisses)
	l.set("graph.rounds", c.rounds)
	l.set("sim.runs", c.sims)
	l.set("telemetry.spans", float64(c.spans))
	l.set("profile.fits", float64(rp.fits))
	l.set("scheme.builds", float64(rp.builds))
	l.set("pipeline.validates", float64(rp.builds))
	l.set("pipeline.instrs", float64(rp.instrs))
}

// replay is what re-running a search's probe pass from outside measured.
type replay struct {
	fits, builds, instrs                    int
	fitMs, estimatorMs, buildMs, validateMs float64
}

// gridShape is one grid point as its trace key names it, e.g.
// "0007 W-16-2(mario)" or "0012 V-4-1(base)+coopt".
type gridShape struct {
	scheme  pipeline.Scheme
	pp, mbs int
	mode    string
}

func parsePointKey(key string) (gridShape, error) {
	var g gridShape
	_, rest, ok := strings.Cut(key, " ")
	if !ok {
		return g, fmt.Errorf("point key %q", key)
	}
	rest, g.mode, _ = strings.Cut(rest, "+")
	label, _, ok := strings.Cut(rest, "(")
	if !ok {
		return g, fmt.Errorf("point key %q", key)
	}
	parts := strings.Split(label, "-")
	if len(parts) != 3 {
		return g, fmt.Errorf("point key %q", key)
	}
	s, err := pipeline.ParseScheme(parts[0])
	if err != nil {
		return g, err
	}
	g.scheme = s
	if g.pp, err = strconv.Atoi(parts[1]); err != nil {
		return g, err
	}
	if g.mbs, err = strconv.Atoi(parts[2]); err != nil {
		return g, err
	}
	return g, nil
}

func attr(n *telemetry.Node, k string) string {
	for _, a := range n.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// probedShapes returns the feasible grid points of a search trace, in
// canonical order.
func probedShapes(tr *telemetry.Trace) ([]gridShape, error) {
	var out []gridShape
	for _, n := range tr.Spans() {
		if n.Phase != telemetry.PhasePoint || attr(n, "result") == "infeasible" {
			continue
		}
		g, err := parsePointKey(n.Key)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// replayProbe re-runs, from outside, the schedule builds and estimator fits
// the search's branch-and-bound probe pass made: scheme.Build once per
// distinct schedule shape (pipeline.Validate timed again on its result) and
// profile.Profiler.EstimatorFor once per feasible point, on a fresh
// profiler. The shapes come from the search trace's point spans.
func replayProbe(e *env, op int, p *mario.Plan, tr *telemetry.Trace) (replay, error) {
	var rp replay
	shapes, err := probedShapes(tr)
	if err != nil {
		return rp, err
	}
	prof := freshProfiler(p.Profiler)
	type buildKey struct {
		scheme     pipeline.Scheme
		pp, micros int
	}
	built := map[buildKey]bool{}
	fitted := map[int]bool{}
	root := e.spans.begin(op, 0, "replay")
	defer e.spans.end(root)
	for _, g := range shapes {
		if g.mode != "" {
			continue // placement-axis points; not on a homogeneous job
		}
		dp := paperDevices / g.pp
		micros := paperBatch / (g.mbs * dp)
		key := buildKey{g.scheme, g.pp, micros}
		if !built[key] {
			built[key] = true
			var s *pipeline.Schedule
			d := e.spans.timed(op, root, "scheme.Build", func() {
				s, err = scheme.Build(g.scheme, scheme.Config{Devices: g.pp, Micros: micros})
			})
			if err != nil {
				continue // a scheme constraint the probe also hit
			}
			rp.buildMs += ms(d)
			rp.builds++
			rp.instrs += s.TotalInstrs()
			rp.validateMs += ms(e.spans.timed(op, root, "pipeline.Validate", func() { err = pipeline.Validate(s) }))
			if err != nil {
				return rp, wrongf("replayed %s schedule is invalid: %v", g.scheme, err)
			}
		}
		stages := g.pp
		if g.scheme == pipeline.SchemeInterleave {
			stages *= 2
		}
		d := e.spans.timed(op, root, "profile.EstimatorFor", func() { _, err = prof.EstimatorFor(stages, g.mbs, 1) })
		if err != nil {
			continue
		}
		rp.estimatorMs += ms(d)
		if !fitted[g.mbs] {
			fitted[g.mbs] = true
			rp.fits++
			rp.fitMs += ms(d)
		}
	}
	return rp, nil
}

// freshProfiler copies a profiler's inputs, without its fitted estimators.
func freshProfiler(p *profile.Profiler) *profile.Profiler {
	return &profile.Profiler{Model: p.Model, HW: p.HW, Spec: p.Spec, Devices: p.Devices, Iters: p.Iters}
}

// simDirect times full and delta simulation of the winner's schedule in
// microseconds: a fresh simulation, and a warm engine re-simulating after a
// local edit (two adjacent compute instructions swapped late on the last
// device, the shape of the graph tuner's prepose candidates).
func simDirect(e *env, p *mario.Plan) (full, delta float64, err error) {
	b := p.Best
	est, err := p.Profiler.EstimatorFor(b.Schedule.NumStages(), b.MicroBatch, 1)
	if err != nil {
		return 0, 0, err
	}
	mem, err := mario.ParseMemory(paperMemory)
	if err != nil {
		return 0, 0, err
	}
	opts := sim.Options{DP: b.DP, MemLimit: mem, NoTimeline: true}
	const reps = 21
	var fulls, deltas []time.Duration
	const op = 0 // outside any workload op
	for i := 0; i < reps; i++ {
		fulls = append(fulls, e.spans.timed(op, 0, "sim.Simulate", func() { _, err = sim.Simulate(b.Schedule, est, opts) }))
		if err != nil {
			return 0, 0, err
		}
	}
	edit, err := lateSwap(b.Schedule, est, opts)
	if err != nil {
		return 0, 0, err
	}
	eng := &sim.Simulator{}
	for _, s := range []*pipeline.Schedule{b.Schedule, edit} {
		if _, err := eng.Simulate(s, est, opts); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < reps; i++ {
		cur := b.Schedule
		if i%2 == 0 {
			cur = edit
		}
		deltas = append(deltas, e.spans.timed(op, 0, "sim.Simulator.Simulate", func() { _, err = eng.Simulate(cur, est, opts) }))
		if err != nil {
			return 0, 0, err
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return us(median(fulls)), us(median(deltas)), nil
}

// lateSwap returns a copy of s with the latest swappable pair of adjacent
// compute instructions on the last device exchanged, choosing a pair whose
// swap still simulates.
func lateSwap(s *pipeline.Schedule, est *cost.Estimator, opts sim.Options) (*pipeline.Schedule, error) {
	last := len(s.Lists) - 1
	for i := len(s.Lists[last]) - 2; i >= 0; i-- {
		a, b := s.Lists[last][i], s.Lists[last][i+1]
		if !a.Kind.IsCompute() || !b.Kind.IsCompute() {
			continue
		}
		edit := s.Clone()
		list := edit.MutableList(last)
		list[i], list[i+1] = list[i+1], list[i]
		if _, err := sim.Simulate(edit, est, opts); err == nil {
			return edit, nil
		}
	}
	return nil, fmt.Errorf("no swappable compute pair on device %d", last)
}

func bubbleMax(r *sim.Result) float64 {
	m := 0.0
	for d := range r.ComputeBusy {
		m = math.Max(m, r.BubbleRatio(d))
	}
	return m
}

func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
