package main

import (
	"fmt"
	"math"
	"time"

	"mario"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/train"
)

const (
	// emuIters is how many iterations one emulated run executes. A run of
	// several iterations is what users make, and it is long enough that the
	// CPU time of threads still running when it ends, which the kernel
	// books a scheduler tick late, is small beside it.
	emuIters = 8
	// trainCycle is how many iterations one trainer runs before a fresh
	// one starts; the set-up records the unoptimized schedule's losses for
	// that many iterations.
	trainCycle = 2
	// Miniature language model the winner's schedule trains: one block per
	// pipeline stage.
	trainDim     = 32
	trainSeqLen  = 16
	trainBatch   = 2
	trainVocab   = 64
	trainLR      = 1e-3
	traceRepeats = 3
)

// emuRef is one emulated run of the winner, the reference every op must
// reproduce: the emulator runs in virtual time, so its figures repeat
// exactly.
type emuRef struct {
	plan     *mario.Plan
	iterTime float64
	events   int
	driftErr float64
}

// emulate runs emuIters emulated iterations with events collected, then the
// drift analysis, recording spans for both calls.
func emulate(e *env, op int, p *mario.Plan) (*mario.RunReport, *mario.DriftReport, sample, error) {
	var rep *mario.RunReport
	var dr *mario.DriftReport
	var err error
	root := e.spans.begin(op, 0, "iteration")
	defer e.spans.end(root)
	s := measure(func() {
		e.spans.timed(op, root, "mario.RunWithOptions", func() {
			rep, err = mario.RunWithOptions(p, emuIters, mario.RunOptions{CollectEvents: true})
		})
		if err == nil {
			e.spans.timed(op, root, "mario.Drift", func() { dr, err = mario.Drift(p, rep) })
		}
	})
	return rep, dr, s, err
}

// runWinner is the run-gpt3-13b-64 workload: the paper job's winning plan
// executed on the emulated cluster, emuIters iterations per op, each run
// followed by the drift analysis against the prediction; then, untimed, in
// the miniature trainer (see runTrainer). The emulated runs do not depend
// on the seed.
func runWinner(e *env) (*report, error) {
	rep := &report{}
	ref, setup, err := repeatSetup(func() (*emuRef, error) {
		p, err := optimizePaper(paperConfig())
		if err != nil {
			return nil, err
		}
		run, dr, _, err := emulate(&env{}, 0, p)
		if err != nil {
			return nil, err
		}
		return &emuRef{plan: p, iterTime: run.IterTime, events: len(run.Events), driftErr: dr.TotalErr}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setup = setup
	var compute []float64 // traced runs: obs.Compute per iteration
	var resets int
	var bubble float64
	closedLoop(e, rep, func(i int) (sample, error) {
		op := i + 1
		run, dr, d, err := emulate(e, op, ref.plan)
		if err != nil {
			return d, err
		}
		if run.IterTime != ref.iterTime || len(run.Events) != ref.events || dr.TotalErr != ref.driftErr {
			return d, wrongf("run of %.9g s per iteration with %d events (drift %.6g) differs from the reference %.9g s with %d events (drift %.6g)",
				run.IterTime, len(run.Events), dr.TotalErr, ref.iterTime, ref.events, ref.driftErr)
		}
		if e.traced() {
			compute = append(compute, ms(e.spans.timed(op, 0, "obs.Compute", func() { obs.Compute(run.Events, run.Total) })))
			resets += run.WatchdogResets
			for dev := range run.Stats.Devices {
				bubble = math.Max(bubble, run.Stats.BubbleRatio(dev))
			}
		}
		return d, nil
	})
	q, err := planQuality(ref.plan)
	if err != nil {
		return nil, err
	}
	rep.quality = q
	logf("emu_iter_ms %.4f ms CPU, %.4f ms wall (p50 of %d runs of %d iterations, with drift); measured_samples_per_s %.9g, predict_err_pct %.6g, measured_peak_mem_gb %.6g",
		ms(median(rep.cpu))/emuIters, ms(median(rep.lat))/emuIters, len(rep.lat), emuIters, q.measuredSamples, q.predictErrPct, q.peakGB)
	if e.traced() {
		// Per emulated iteration: the span self times are summed over all
		// runs.
		self := e.spans.selfByName()
		iters := float64(len(rep.lat) * emuIters)
		rep.layers = layers{}
		rep.layers.set("cluster.instrs_per_iter", float64(ref.events)/emuIters)
		rep.layers.set("cluster.host_ms_per_iter", self["mario.RunWithOptions"]/iters)
		rep.layers.set("cluster.watchdog_resets", float64(resets))
		rep.layers.set("obs.events", float64(ref.events)/emuIters)
		rep.layers.set("obs.compute_ms", medianF(compute)/emuIters)
		rep.layers.set("obs.drift_ms", self["mario.Drift"]/iters)
		rep.layers.set("obs.bubble_max", bubble)
		rep.layers.set("sim.bubble_max", bubbleMax(ref.plan.Best.Result))
	}
	if err := runTrainer(e, rep, ref.plan); err != nil {
		return nil, err
	}
	return rep, nil
}

// trainRef holds the winner's schedule and the losses the unoptimized
// schedule of the same scheme produced, which every trained iteration must
// reproduce bit for bit.
type trainRef struct {
	plan     *mario.Plan
	cfg      train.Config
	base     []*train.Stats // one per iteration of a cycle
	basePeak int64
}

func trainConfig(devices, blocks, micros int, seed int64) train.Config {
	return train.Config{Devices: devices, BlocksPerStage: blocks, Dim: trainDim, SeqLen: trainSeqLen,
		Micros: micros, BatchPerMicro: trainBatch, Seed: uint64(seed), LR: trainLR, Vocab: trainVocab}
}

// baseSchedule builds the unoptimized schedule of the winner's scheme and
// shape.
func baseSchedule(p *mario.Plan) (*pipeline.Schedule, error) {
	s := p.Best.Schedule
	return mario.BuildSchedule(string(p.Best.Scheme), s.NumDevices(), s.Micros)
}

func newTrainRef(e *env, p *mario.Plan) (*trainRef, error) {
	s := p.Best.Schedule
	ref := &trainRef{plan: p, cfg: trainConfig(s.NumDevices(), 1, s.Micros, e.seed)}
	base, err := baseSchedule(p)
	if err != nil {
		return nil, err
	}
	tr, err := train.New(ref.cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < trainCycle; i++ {
		st, err := tr.RunIteration(base)
		if err != nil {
			return nil, fmt.Errorf("unoptimized %s iteration %d: %w", p.Best.Scheme, i, err)
		}
		ref.base = append(ref.base, st)
		ref.basePeak = max(ref.basePeak, peak(st.PeakActBytes))
	}
	return ref, nil
}

func peak(bytes []int64) int64 {
	var m int64
	for _, b := range bytes {
		m = max(m, b)
	}
	return m
}

// sameLosses reports whether two iterations' losses are bit-identical.
func sameLosses(a, b *train.Stats) bool {
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || len(a.MicroLosses) != len(b.MicroLosses) {
		return false
	}
	for i := range a.MicroLosses {
		if math.Float64bits(a.MicroLosses[i]) != math.Float64bits(b.MicroLosses[i]) {
			return false
		}
	}
	return true
}

// runTrainer runs the winner's schedule — its devices, micro-batches and
// checkpointing — as real-tensor iterations of a miniature language model,
// after the timed emulated runs and outside their timing, and checks every
// iteration's losses against the unoptimized schedule of the same scheme.
// The iterations count as ops. A traced run runs more of them and reports
// the train layer. The seed sets the model's weights and data.
func runTrainer(e *env, rep *report, p *mario.Plan) error {
	ref, err := newTrainRef(e, p)
	if err != nil {
		return err
	}
	iters := trainCycle
	if e.traced() {
		iters = traceRepeats * trainCycle
	}
	var tr *train.Trainer
	var events [][]obs.Event
	var walls []time.Duration
	var peakMax int64
	winner := p.Best.Schedule
	for i := 0; i < iters; i++ {
		rep.attempted++
		op := rep.attempted
		if i%trainCycle == 0 {
			if tr, err = train.New(ref.cfg); err != nil {
				return err
			}
		}
		var st *train.Stats
		var ev []obs.Event
		walls = append(walls, e.spans.timed(op, 0, "train.Trainer.RunIteration", func() {
			if e.traced() {
				st, ev, err = mario.TraceIteration(tr, winner)
			} else {
				st, err = tr.RunIteration(winner)
			}
		}))
		if err == nil && !sameLosses(st, ref.base[i%trainCycle]) {
			err = wrongf("trained iteration %d loss %.17g differs from the unoptimized schedule's %.17g",
				i%trainCycle, st.Loss, ref.base[i%trainCycle].Loss)
		}
		if err != nil {
			countWrong(rep, op, err)
			continue
		}
		events = append(events, ev)
		peakMax = max(peakMax, peak(st.PeakActBytes))
	}
	logf("train_iter_ms %.3f ms wall, median of %d iterations; peak activation %d B vs %d B unoptimized",
		ms(median(walls)), len(walls), peakMax, ref.basePeak)
	if !e.traced() {
		return nil
	}
	single, err := singleDevice(e, ref)
	if err != nil {
		return err
	}
	for k, v := range trainLayers(events) {
		rep.layers[k] = v
	}
	rep.layers.set("train.iter_ms", ms(median(walls)))
	rep.layers.set("train.loss", ref.base[0].Loss)
	rep.layers.set("train.peak_act_ratio", float64(peakMax)/float64(ref.basePeak))
	rep.layers.set("train.single_iter_ms", single)
	return nil
}

// trainLayers sums the trainer's per-instruction wall-clock events by kind,
// per iteration, and reports the medians across iterations.
func trainLayers(iters [][]obs.Event) layers {
	var fw, bw, rc, wait, recomputes []float64
	for _, evs := range iters {
		var f, b, r, w, n float64
		for _, ev := range evs {
			d := (ev.End - ev.Start) * 1000
			switch ev.Kind {
			case pipeline.Forward, pipeline.CkptForward:
				f += d
			case pipeline.Backward, pipeline.BackwardInput, pipeline.BackwardWeight:
				b += d
			case pipeline.Recompute:
				r += d
				n++
			}
			w += ev.Wait * 1000
		}
		fw, bw, rc, wait, recomputes = append(fw, f), append(bw, b), append(rc, r), append(wait, w), append(recomputes, n)
	}
	l := layers{}
	l.set("train.fw_ms", medianF(fw))
	l.set("train.bw_ms", medianF(bw))
	l.set("train.rc_ms", medianF(rc))
	l.set("train.wait_ms", medianF(wait))
	l.set("train.recomputes", medianF(recomputes))
	return l
}

// singleDevice times the same miniature model on one device — every block
// on it, 1F1B over the same micro-batches — as the plain single-worker
// baseline, and returns the median iteration in milliseconds.
func singleDevice(e *env, ref *trainRef) (float64, error) {
	s := ref.plan.Best.Schedule
	cfg := trainConfig(1, s.NumStages(), s.Micros, e.seed)
	tr, err := train.New(cfg)
	if err != nil {
		return 0, err
	}
	one, err := mario.BuildSchedule("1F1B", 1, s.Micros)
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i := 0; i < traceRepeats; i++ {
		ds = append(ds, e.spans.timed(0, 0, "train.single.RunIteration", func() { _, err = tr.RunIteration(one) }))
		if err != nil {
			return 0, fmt.Errorf("single-device iteration: %w", err)
		}
	}
	return ms(median(ds)), nil
}
