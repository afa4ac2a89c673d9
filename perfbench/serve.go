package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

const (
	// One request in freshEvery is a unique fresh workload.
	freshEvery = 5
	// requestTimeout bounds one request; a request still unanswered then
	// counts as failed.
	requestTimeout = 30 * time.Second
	fleetSize      = 2
	// cacheSize is each member's plan-cache capacity. It is small so the
	// caches reach their steady size, and the process its steady memory,
	// within the first cycles of a run; the hot set is touched often
	// enough to stay cached.
	cacheSize = 16
)

// hotSet is the warmed set of homogeneous workloads the mix repeats; the
// fleet answers them from its plan caches. They are alike in size (0.25-0.37
// MB answers), so a hit costs about the same whichever one it is.
var hotSet = []api.PlanRequest{
	{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Memory: "40G"},
	{Model: "GPT3-1.6B", Devices: 4, GlobalBatch: 16, Memory: "40G"},
	{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 8, Memory: "40G"},
	{Model: "GPT3-1.6B", Devices: 4, GlobalBatch: 8, Memory: "40G"},
}

// freshJobs is one cycle of fresh workloads: LLaMA2-3B, GPT3-1.6B and
// GPT3-13B, mostly on 4 devices, with 2 or 4 samples per device and 32, 40
// or 80 GB per device, a quarter of them with one 0.8x device. Alone, each
// plans through the fleet in 40-200 ms. Larger jobs are left out: an
// 8-device job with 4 samples per device takes up to 0.6 s and a 16-device
// one 0.6-2 s with a 6-17 MB answer, so a few of them would decide a run's
// tail on their own.
var freshJobs = []struct {
	model          string
	devices, batch int
	memGB          int
	hetero         bool
}{
	{"LLaMA2-3B", 4, 8, 32, false}, {"LLaMA2-3B", 4, 16, 80, false},
	{"LLaMA2-3B", 4, 8, 40, true}, {"LLaMA2-3B", 8, 16, 40, false},
	{"GPT3-1.6B", 4, 8, 40, false}, {"GPT3-1.6B", 4, 16, 32, true},
	{"GPT3-1.6B", 4, 16, 80, false}, {"GPT3-1.6B", 8, 16, 80, false},
	{"GPT3-13B", 4, 8, 80, true}, {"GPT3-13B", 4, 16, 80, false},
	{"GPT3-13B", 4, 16, 40, false}, {"GPT3-13B", 8, 16, 40, false},
}

// cycleLen is the length of one cycle of the mix: every fresh job once and
// the hot set in whole rounds per member.
var cycleLen = freshEvery * len(freshJobs)

// mixRequest is one generated request.
type mixRequest struct {
	hot    int // index into hotSet, or -1 for a fresh workload
	hetero bool
	member int // fleet member the generator sends it to
	body   []byte
}

// genMix draws n requests from the seed. The mix is stratified so every
// seed offers the same work: every freshEvery-th request, from a seeded
// phase, is a unique fresh workload, and the fresh ones go through whole
// cycles of freshJobs, each cycle in a seeded order; the rest go through
// whole cycles of the hot set per member, each cycle in a seeded order, so
// each member is sent every hot workload equally often and half of the hits
// reach the workload's owner. Each fresh workload's memory budget is made
// unique to the request by a few KB, so it is a cache miss, and a
// heterogeneous one gets a seeded slow device. Requests alternate between
// the fleet members.
func genMix(seed int64, n int) ([]mixRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	phase := rng.Intn(freshEvery)
	var jobOrder []int
	hotOrder := make([][]int, fleetSize)
	out := make([]mixRequest, n)
	for i := range out {
		r := mixRequest{hot: -1, member: i % fleetSize}
		var req api.PlanRequest
		if i%freshEvery != phase {
			order := &hotOrder[r.member]
			if len(*order) == 0 {
				*order = rng.Perm(len(hotSet))
			}
			r.hot, *order = (*order)[0], (*order)[1:]
			req = hotSet[r.hot]
		} else {
			if len(jobOrder) == 0 {
				jobOrder = rng.Perm(len(freshJobs))
			}
			job := freshJobs[jobOrder[0]]
			jobOrder = jobOrder[1:]
			req = api.PlanRequest{Model: job.model, Devices: job.devices, GlobalBatch: job.batch,
				Memory: fmt.Sprintf("%dK", job.memGB<<20+i+1)}
			if job.hetero {
				r.hetero = true
				req.DeviceSpeeds = make([]float64, job.devices)
				for d := range req.DeviceSpeeds {
					req.DeviceSpeeds[d] = 1
				}
				req.DeviceSpeeds[rng.Intn(job.devices)] = 0.8
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
		out[i] = r
	}
	return out, nil
}

// member is one loopback fleet member.
type member struct {
	url  string
	s    *serve.Server
	hs   *http.Server
	done chan error
}

// fleet is a booted loopback fleet plus the in-process reference answers
// for the hot set.
type fleet struct {
	members []*member
	client  *http.Client
	ref     [][]byte      // json.Marshal of mario.Optimize per hot-set entry
	plans   []*mario.Plan // the same plans, for their quality
}

// bootFleet starts a full-mesh loopback fleet, each member a coordinator,
// shard worker and router with one tuner worker per search.
func bootFleet() (*fleet, error) {
	f := &fleet{}
	var listeners []net.Listener
	var urls []string
	for i := 0; i < fleetSize; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		listeners = append(listeners, l)
		urls = append(urls, "http://"+l.Addr().String())
	}
	for i, l := range listeners {
		opts := serve.Options{Self: urls[i], TunerWorkers: 1, CacheSize: cacheSize, FlightRing: 4096}
		for j, u := range urls {
			if j != i {
				opts.Fleet = append(opts.Fleet, u)
			}
		}
		s := serve.New(opts)
		m := &member{url: urls[i], s: s, hs: &http.Server{Handler: s.Handler()}, done: make(chan error, 1)}
		go func(l net.Listener) { m.done <- m.hs.Serve(l) }(l)
		f.members = append(f.members, m)
	}
	// At most nproc connections in all, split over the members.
	conns := max(1, runtime.NumCPU()/fleetSize)
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true}}
	return f, nil
}

// stop drains every member, closes its listener and waits for it to
// return. A member that fails to drain in time is logged; its listener is
// closed all the same.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f.client.CloseIdleConnections()
	for _, m := range f.members {
		if err := m.s.Drain(ctx); err != nil {
			logf("draining %s: %v", m.url, err)
		}
		if err := m.hs.Shutdown(ctx); err != nil {
			logf("stopping %s: %v", m.url, err)
			m.hs.Close()
		}
		<-m.done
	}
}

// post sends one plan request body to a member and returns the response.
func (f *fleet) post(ctx context.Context, m int, body []byte, trace bool) (int, []byte, error) {
	url := f.members[m].url + "/v1/plan"
	if trace {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads every member's /metrics and sums the series over members.
func (f *fleet) scrape() (map[string]float64, error) {
	series := map[string]float64{}
	for _, m := range f.members {
		resp, err := f.client.Get(m.url + "/metrics")
		if err != nil {
			return nil, err
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		s, err := promSeries(text)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			series[k] += v
		}
	}
	return series, nil
}

// planField returns the plan bytes of a PlanResponse body without decoding
// the (up to megabytes of) plan JSON.
func planField(body []byte) ([]byte, bool) {
	const key = `"plan":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, false
	}
	return body[i+len(key):], true
}

// checkHot verifies a hot-set answer is byte-identical to the in-process
// Optimize of the same request.
func (f *fleet) checkHot(hot int, body []byte) error {
	rest, ok := planField(body)
	ref := f.ref[hot]
	if !ok || !bytes.HasPrefix(rest, ref) || len(rest) == len(ref) || (rest[len(ref)] != ',' && rest[len(ref)] != '}') {
		return wrongf("hot-set answer %d differs from the in-process plan", hot)
	}
	return nil
}

// setUpFleet boots a fleet, plans the hot set in process and warms both
// members' caches with it, checking every warm answer.
func setUpFleet() (*fleet, error) {
	f, err := bootFleet()
	if err != nil {
		return nil, err
	}
	for _, req := range hotSet {
		r := req
		model, err := r.Validate()
		if err != nil {
			f.stop()
			return nil, err
		}
		p, err := mario.Optimize(r.Config(1), model)
		if err != nil {
			f.stop()
			return nil, err
		}
		b, err := json.Marshal(p)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.ref = append(f.ref, b)
		f.plans = append(f.plans, p)
	}
	for m := range f.members {
		for i, req := range hotSet {
			body, _ := json.Marshal(req)
			status, data, err := f.post(context.Background(), m, body, false)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warming hot-set entry %d on member %d: status %d: %s", i, m, status, data)
			}
			if err == nil {
				err = f.checkHot(i, data)
			}
			if err != nil {
				f.stop()
				return nil, err
			}
		}
	}
	return f, nil
}

// outcome is one generated request's result.
type outcome struct {
	latency time.Duration
	ok      bool
	wrong   bool
	peer    bool // answered by the workload's owner after routing
	fp      string
}

// runServe is the serve-fleet-mix workload: the seeded mix sent to the
// fleet one request at a time, in whole cycles, until the measured time has
// passed. An op is one request. Its CPU time is the process's CPU time over
// a cycle divided by the cycle's requests, so it covers both members, the
// routing and the shard dispatch, and every cycle offers the same work.
func runServe(e *env) (*report, error) {
	rep := &report{}
	// A cycle takes well over a quarter of a second, so this many cycles
	// outlast the measured time.
	maxCycles := 4*int(e.seconds.Seconds()) + 1
	mix, err := genMix(e.seed, maxCycles*cycleLen)
	if err != nil {
		return nil, err
	}
	f, setup, err := repeatSetup(setUpFleet, func(f *fleet) { f.stop() })
	if err != nil {
		return nil, err
	}
	rep.setup = setup
	var before map[string]float64
	if e.traced() {
		if before, err = f.scrape(); err != nil {
			f.stop()
			return nil, err
		}
	}
	var outs []outcome
	deadline := time.Now().Add(e.seconds)
	for c := 0; c < maxCycles && (c == 0 || time.Now().Before(deadline)); c++ {
		kern.run()
		c0 := cpuTime()
		var wall time.Duration
		for i := c * cycleLen; i < (c+1)*cycleLen; i++ {
			o := send(e, f, mix[i], i+1)
			wall += o.latency
			outs = append(outs, o)
		}
		n := time.Duration(cycleLen)
		rep.add(sample{wall: wall / n, cpu: (cpuTime() - c0) / n})
	}
	mix = mix[:len(outs)]
	rep.attempted = len(outs)
	for _, o := range outs {
		switch {
		case o.wrong:
			rep.wrong++
			rep.failed++
		case !o.ok:
			rep.failed++
		}
	}
	if e.traced() {
		if rep.layers, err = serveLayers(e, f, mix, outs, before); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.stop()
	for _, p := range f.plans {
		q, err := planQuality(p)
		if err != nil {
			return nil, err
		}
		rep.quality.planSamples += q.planSamples
		rep.quality.measuredSamples += q.measuredSamples
		rep.quality.predictErrPct += q.predictErrPct / float64(len(f.plans))
		rep.quality.peakGB = max(rep.quality.peakGB, q.peakGB)
	}
	var lat []time.Duration
	for _, o := range outs {
		lat = append(lat, o.latency)
	}
	logf("serve_cpu_ms %.4f ms per request, before rescaling (median over %d cycles of %d requests); wall p50 %.3f ms, p90 %.3f ms per request",
		ms(median(rep.cpu)), len(rep.cpu), cycleLen, ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)))
	return rep, nil
}

// send posts one request of the mix to its member, waits for the answer and
// checks it: a hot-set answer must equal the in-process plan byte for byte,
// and a fresh one must carry a plan.
func send(e *env, f *fleet, r mixRequest, op int) outcome {
	var o outcome
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var status int
	var body []byte
	var err error
	o.latency = e.spans.timed(op, 0, "serve.request", func() {
		status, body, err = f.post(ctx, r.member, r.body, e.traced() && r.hot < 0)
	})
	if err != nil || status != http.StatusOK {
		logf("op %d: status %d, %v", op, status, err)
		return o
	}
	o.ok = true
	head := body[:min(len(body), 512)]
	o.peer = bytes.Contains(head, []byte(`"peer":"`))
	if i := bytes.Index(head, []byte(`"fingerprint":"`)); i >= 0 {
		rest := head[i+len(`"fingerprint":"`):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			o.fp = string(rest[:j])
		}
	}
	if r.hot >= 0 {
		if err := f.checkHot(r.hot, body); err != nil {
			o.ok, o.wrong = false, true
			logf("op %d: %v", op, err)
		}
	} else if _, ok := planField(body); !ok {
		o.ok, o.wrong = false, true
		logf("op %d: fresh answer carries no plan", op)
	}
	return o
}

// serveLayers gathers the traced serve run's per-layer metrics: the
// members' registries (scraped over /metrics, less the before-window
// scrape), the flight recorders' search traces of the fresh plans, the
// generator's own timings, and a replay of the placement co-optimization
// the heterogeneous searches ran.
func serveLayers(e *env, f *fleet, mix []mixRequest, outs []outcome, before map[string]float64) (layers, error) {
	series, err := f.scrape()
	if err != nil {
		return nil, err
	}
	for k, v := range before {
		series[k] -= v
	}
	l := layers{}
	count := func(name, key string) { l.set(name, series[key]) }
	count("serve.requests", "mario_serve_requests_total")
	count("serve.shared", "mario_serve_flights_shared_total")
	count("serve.rejected", "mario_serve_rejected_total")
	count("serve.timeouts", "mario_serve_timeouts_total")
	count("serve.tuner_runs", "mario_serve_tuner_runs_total")
	count("serve.peer_routed", `mario_serve_peer_routed_total{result="ok"}`)
	count("serve.peer_errors", `mario_serve_peer_routed_total{result="error"}`)
	count("serve.shard_points", "mario_serve_shard_points_total")
	hits, misses := series["mario_serve_cache_hits_total"], series["mario_serve_cache_misses_total"]
	l.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	outcomes := func(o string) float64 { return series[`mario_search_points_total{outcome="`+o+`"}`] }
	explored := outcomes("explored")
	feasible := explored + outcomes("bound_pruned") + outcomes("memory_pruned")
	l.set("tuner.points", feasible+outcomes("infeasible")) // oom points are explored ones
	l.set("tuner.explored", explored)
	l.set("tuner.bound_pruned", outcomes("bound_pruned"))
	l.set("tuner.mem_pruned", outcomes("memory_pruned"))
	l.set("tuner.infeasible", outcomes("infeasible"))
	l.set("tuner.explore_ratio", ratio(explored, feasible))
	memo := func(kind string) float64 {
		h := series[`mario_search_`+kind+`_memo_total{result="hit"}`]
		return ratio(h, h+series[`mario_search_`+kind+`_memo_total{result="miss"}`])
	}
	l.set("tuner.build_memo_hit_ratio", memo("build"))
	l.set("tuner.graph_memo_hit_ratio", memo("graph"))
	count("tuner.fleet_waves", "mario_search_fleet_waves_total")
	count("tuner.fleet_shards", "mario_search_fleet_shards_total")
	count("tuner.fleet_fallbacks", "mario_search_fleet_fallbacks_total")
	count("tuner.fleet_forced", "mario_search_fleet_forced_total")
	count("graph.calls", `mario_search_graph_memo_total{result="miss"}`)
	count("graph.rounds", "mario_search_graph_rounds_total")
	count("sim.runs", "mario_search_sims_total")

	// Generator timings and the drawn mix.
	var hit, miss []time.Duration
	var fresh, hetero, peer float64
	for i, o := range outs {
		if mix[i].hot >= 0 {
			hit = append(hit, o.latency)
		} else {
			miss = append(miss, o.latency)
			fresh++
			if mix[i].hetero {
				hetero++
			}
		}
		if o.peer {
			peer++
		}
	}
	n := float64(len(outs))
	l.set("serve.hit_p50_ms", ms(median(hit)))
	l.set("serve.miss_p50_ms", ms(median(miss)))
	l.set("serve.hot_share", (n-fresh)/n)
	l.set("serve.fresh_share", fresh/n)
	l.set("serve.hetero_share", ratio(hetero, fresh))
	l.set("serve.owner_share", (n-peer)/n)
	logf("mix: %d requests, hot %.3f, fresh %.3f (heterogeneous %.3f of fresh), sent to the owner %.3f, routed %.3f",
		len(outs), (n-fresh)/n, fresh/n, ratio(hetero, fresh), (n-peer)/n, peer/n)

	// Search traces of the fresh plans, from the members' flight recorders.
	byFP := map[string]int{}
	for i, o := range outs {
		if mix[i].hot < 0 && o.fp != "" {
			byFP[o.fp] = i
		}
	}
	per := map[string][]float64{}
	var coopt []cooptPoint
	for _, m := range f.members {
		for _, rec := range m.s.FlightRecorder().Recent() {
			i, ok := byFP[rec.Fingerprint]
			if !ok || rec.Trace == nil || len(rec.Trace.Roots) == 0 {
				continue
			}
			self := phaseSelf(rec.Trace)
			per["graph.self_ms"] = append(per["graph.self_ms"], self[telemetry.PhaseGraph])
			per["graph.round_self_ms"] = append(per["graph.round_self_ms"], self[telemetry.PhaseRound])
			per["sim.self_ms"] = append(per["sim.self_ms"], self[telemetry.PhaseSim])
			per["tuner.search_self_ms"] = append(per["tuner.search_self_ms"], self[telemetry.PhaseSearch])
			per["tuner.bound_self_ms"] = append(per["tuner.bound_self_ms"], self[telemetry.PhaseBound])
			per["telemetry.spans"] = append(per["telemetry.spans"], float64(len(rec.Trace.Spans())))
			if mix[i].hetero {
				pts, err := cooptPoints(mix[i].body, rec.Trace)
				if err != nil {
					return nil, err
				}
				coopt = append(coopt, pts...)
			}
		}
	}
	for k, vs := range per {
		l.set(k, medianF(vs))
	}
	calls, coMs, err := replayCoopt(e, coopt)
	if err != nil {
		return nil, err
	}
	l.set("place.calls", float64(calls))
	l.set("place.coopt_ms", coMs)
	return l, nil
}

// cooptPoint is one co-optimized grid point of a heterogeneous search, with
// a profiler shared by the points of one request.
type cooptPoint struct {
	req  api.PlanRequest
	g    gridShape
	prof *profile.Profiler
}

// cooptPoints lists the feasible co-optimized points of a search trace.
func cooptPoints(body []byte, tr *telemetry.Trace) ([]cooptPoint, error) {
	var req api.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	shapes, err := probedShapes(tr)
	if err != nil {
		return nil, err
	}
	model, err := req.Validate()
	if err != nil {
		return nil, err
	}
	mem, err := mario.ParseMemory(req.Memory)
	if err != nil {
		return nil, err
	}
	hw := cost.A100_40G
	hw.MemBytes = mem
	prof := &profile.Profiler{Model: model, HW: hw, Spec: profile.DefaultMachine, Devices: 4, Iters: 10}
	var out []cooptPoint
	for _, g := range shapes {
		if g.mode == string(place.ModeCoOpt) {
			out = append(out, cooptPoint{req: req, g: g, prof: prof})
		}
	}
	return out, nil
}

// replayCoopt times place.CoOptimize once per co-optimized point, with the
// inputs the tuner gives it: the per-layer cost model of a one-stage-per-
// layer estimator, the point's schedule placement, the per-rank speeds and
// the memory budget. It returns the call count and the total milliseconds.
func replayCoopt(e *env, pts []cooptPoint) (int, float64, error) {
	total := 0.0
	for _, pt := range pts {
		req := pt.req
		model := pt.prof.Model
		mem := pt.prof.HW.MemBytes
		g := pt.g
		dp := req.Devices / g.pp
		micros := req.GlobalBatch / (g.mbs * dp)
		sched, err := scheme.Build(g.scheme, scheme.Config{Devices: g.pp, Micros: micros})
		if err != nil {
			return 0, 0, err
		}
		perLayer := make([]int, model.Layers)
		for i := range perLayer {
			perLayer[i] = 1
		}
		layerEst, err := pt.prof.EstimatorForPartition(perLayer, g.mbs, 1)
		if err != nil {
			return 0, 0, err
		}
		pl := sched.Placement
		opts := place.Options{MemCap: mem, FrameworkMem: layerEst.FrameworkMem, InFlight: inFlight(sched),
			BufBytes: layerEst.ActP2PBytes + layerEst.GradP2PBytes}
		rank := place.RankSpeeds(req.DeviceSpeeds, pl.NumDevices(), dp)
		lm := place.NewLayerModel(layerEst)
		total += ms(e.spans.timed(0, 0, "place.CoOptimize", func() { _, err = place.CoOptimize(lm, pl, rank, opts) }))
		if err != nil {
			return 0, 0, err
		}
	}
	return len(pts), total, nil
}

// inFlight counts, per stage, the forwards a device runs before the
// stage's first backward — the in-flight depth the tuner hands the
// partitioner's memory cap.
func inFlight(s *pipeline.Schedule) []int {
	out := make([]int, s.NumStages())
	for _, list := range s.Lists {
		fw := make([]int, len(out))
		done := make([]bool, len(out))
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
			out[st] = max(out[st], n)
		}
	}
	for st := range out {
		out[st] = max(out[st], 1)
	}
	return out
}
