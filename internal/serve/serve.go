package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"mario"
	"mario/internal/telemetry"
)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// CacheSize bounds the LRU plan cache; 0 means 64 plans.
	CacheSize int
	// Workers is the tuner worker-pool size — how many plan computations
	// may run concurrently; 0 means 2.
	Workers int
	// QueueDepth bounds how many flights may wait for a worker beyond the
	// ones running; a full queue rejects new work with 429. 0 means 16.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does not
	// set one; 0 means 5 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines; 0 means 15 minutes.
	MaxTimeout time.Duration
	// TunerWorkers caps the per-run tuner parallelism (mario.Config.Workers)
	// a request may ask for; 0 leaves requests uncapped (0 = GOMAXPROCS).
	TunerWorkers int
	// Registry receives the server's metric series (and the search
	// metrics of every tuner run); nil allocates a private registry.
	// /metrics renders everything registered on it.
	Registry *telemetry.Registry
	// FlightRing is how many recent request traces the flight recorder
	// keeps; 0 means 64. FlightSlow is the slow-log size; 0 means 8.
	FlightRing int
	FlightSlow int
	// MaxBodyBytes bounds request bodies on the plan, stream and shard
	// endpoints (oversized bodies get 413); 0 means 1 MiB.
	MaxBodyBytes int64

	// Fleet lists the base URLs of the other planning-fleet members. A
	// non-empty fleet makes this server a coordinator: its branch-and-bound
	// searches are dispatched across the members in shard waves, and (when
	// Self is also set) plan requests are routed to each workload's
	// consistent-hash owner.
	Fleet []string
	// Self is this member's own advertised base URL. Required for peer
	// routing (it places this member on the hash ring); optional for shard
	// dispatch.
	Self string
	// Shards is the number of shard partitions per dispatch wave; 0 means
	// one per fleet member.
	Shards int
	// ShardChunk is the number of sorted grid points per shard per wave; 0
	// means tuner.DefaultShardChunk.
	ShardChunk int
	// FleetRetries and FleetBackoff configure the shard clients' bounded
	// retry (client.Client Retries/Backoff); zero means no retries — the
	// coordinator's local fallback already keeps results exact.
	FleetRetries int
	FleetBackoff time.Duration
	// WorkerCache bounds the per-workload shard-worker cache (memoized
	// tuners serving /v1/shard); 0 means 8.
	WorkerCache int
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 15 * time.Minute
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.FlightRing <= 0 {
		o.FlightRing = 64
	}
	if o.FlightSlow <= 0 {
		o.FlightSlow = 8
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.WorkerCache <= 0 {
		o.WorkerCache = 8
	}
	return o
}

// Server is the planning service: an http.Handler that answers Optimize
// requests from a fingerprint-keyed plan cache, deduplicates concurrent
// identical requests onto shared flights, and executes cache misses on a
// bounded worker pool. Every tuner run is traced with a telemetry.Tracer
// keyed by the workload fingerprint; the canonical trace is returned to
// clients that ask (?trace=1) and kept in the flight recorder either way.
// Create one with New, mount Handler, and call Drain (or Close) on
// shutdown.
type Server struct {
	opts      Options
	reg       *telemetry.Registry
	sm        *serverMetrics
	search    *telemetry.SearchMetrics
	flightRec *telemetry.FlightRecorder
	cache     *planCache
	fleet     *fleetState // peer routing, shard dispatch and the shard-worker cache

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool

	jobs chan *flight
	wg   sync.WaitGroup

	// run computes one flight's plan bytes, recording its spans on tracer;
	// tests replace it to make admission and drain behaviour deterministic.
	run func(ctx context.Context, req PlanRequest, tracer *telemetry.Tracer, progress func(ProgressEvent)) ([]byte, error)
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		reg:       opts.Registry,
		sm:        newServerMetrics(opts.Registry),
		search:    telemetry.NewSearchMetrics(opts.Registry),
		flightRec: telemetry.NewFlightRecorder(opts.FlightRing, opts.FlightSlow),
		cache:     newPlanCache(opts.CacheSize),
		flights:   make(map[string]*flight),
		jobs:      make(chan *flight, opts.QueueDepth),
	}
	s.sm.cacheCapacity.Set(int64(opts.CacheSize))
	s.fleet = newFleetState(opts)
	s.run = s.optimize
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the metrics registry /metrics renders.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// FlightRecorder returns the server's black box — the ring of recent
// request traces /debug/flight dumps.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.flightRec }

// Handler returns the service's HTTP routes:
//
//	POST /v1/plan         blocking plan request → PlanResponse JSON
//	POST /v1/plan/stream  same request, NDJSON progress stream + final plan
//	POST /v1/shard        fleet shard batch → ShardResponse JSON
//	GET  /v1/models       built-in model presets
//	GET  /healthz         readiness (503 while draining)
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/flight    flight-recorder dump (recent traces + slow log)
//
// The plan endpoints accept ?trace=1 to embed the run's canonical search
// trace in the response.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/plan/stream", s.handleStream)
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}

// Drain stops admitting new plan requests, lets queued and running flights
// finish, and returns when the worker pool has exited (or ctx expires).
// In-flight HTTP waiters are not interrupted — pair Drain with
// http.Server.Shutdown, which waits for them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Drain without grace: it cancels every in-progress flight and
// waits for the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	for _, f := range s.flights {
		f.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// errBusy and errDraining are the admission-control refusals.
var (
	errBusy     = errors.New("serve: worker queue full")
	errDraining = errors.New("serve: server is draining")
)

// admit resolves one validated request under the server mutex: a cache hit
// returns the stored bytes; an identical in-progress flight is joined; and
// otherwise a new flight is created and enqueued — unless the queue is full
// or the server is draining.
func (s *Server) admit(fp string, req PlanRequest) (data []byte, f *flight, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.cache.get(fp); ok {
		return d, nil, false, nil
	}
	if s.draining {
		return nil, nil, false, errDraining
	}
	if f, ok := s.flights[fp]; ok {
		f.waiters++
		return nil, f, false, nil
	}
	f = newFlight(fp, req)
	select {
	case s.jobs <- f:
		s.flights[fp] = f
		return nil, f, true, nil
	default:
		f.cancel()
		return nil, nil, false, errBusy
	}
}

// leave drops one waiter from a flight; the last waiter out cancels the
// flight's context so an abandoned tuner run stops burning a worker.
func (s *Server) leave(f *flight) {
	s.mu.Lock()
	f.waiters--
	if f.waiters <= 0 {
		f.cancel()
	}
	s.mu.Unlock()
}

// worker executes flights off the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.jobs {
		s.runFlight(f)
	}
}

// flightOutcome maps a run error to the flight recorder's outcome label.
func flightOutcome(err error) string {
	switch {
	case err == nil:
		return "completed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// runFlight computes one flight's plan under a fingerprint-keyed tracer,
// populates the cache on success, files the trace with the flight recorder,
// and wakes the waiters. The flight leaves the dedup map before finish so a
// late identical request either hits the cache (success) or starts a fresh
// flight (failure) — it can never join a finished one.
func (s *Server) runFlight(f *flight) {
	if err := f.ctx.Err(); err != nil {
		s.removeFlight(f)
		f.finish(nil, err)
		return
	}
	s.sm.tunerRuns.Inc()
	tracer := telemetry.New(f.fp).WithMetrics(s.search)
	start := time.Now()
	data, err := s.run(f.ctx, f.req, tracer, f.broadcast)
	elapsed := time.Since(start)
	tr := tracer.Snapshot()
	if raw, merr := json.Marshal(tr); merr == nil {
		f.trace = raw
	}
	s.flightRec.Record(telemetry.FlightRecord{
		Fingerprint: f.fp,
		Outcome:     flightOutcome(err),
		Start:       start,
		Elapsed:     elapsed,
		Trace:       tr,
	})
	if err == nil {
		s.cache.add(f.fp, data)
	}
	s.removeFlight(f)
	f.finish(data, err)
}

func (s *Server) removeFlight(f *flight) {
	s.mu.Lock()
	if cur, ok := s.flights[f.fp]; ok && cur == f {
		delete(s.flights, f.fp)
	}
	s.mu.Unlock()
}

// optimize is the production run function: it resolves the request into a
// mario.Config, executes OptimizeContext with the flight's tracer and
// progress forwarding, and marshals the plan with the deterministic Plan
// codec.
func (s *Server) optimize(ctx context.Context, req PlanRequest, tracer *telemetry.Tracer, progress func(ProgressEvent)) ([]byte, error) {
	model, err := req.Validate()
	if err != nil {
		return nil, err
	}
	workers := req.Workers
	if s.opts.TunerWorkers > 0 && (workers <= 0 || workers > s.opts.TunerWorkers) {
		workers = s.opts.TunerWorkers
	}
	conf := req.Config(workers)
	// A configured fleet turns this run into a coordinator search: probe
	// locally, dispatch shard waves to the peers. The tuner guarantees the
	// plan bytes are identical to a local run (and falls back locally on
	// any dispatch failure), so nothing downstream can tell.
	conf.Sharder = s.sharderFor(req)
	conf.Tracer = tracer
	conf.Progress = func(n int, best string, throughput float64) {
		progress(ProgressEvent{Explored: n, Best: best, BestThroughput: throughput})
	}
	plan, err := mario.OptimizeContext(ctx, conf, model)
	if err != nil {
		return nil, err
	}
	return json.Marshal(plan)
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeRequest parses and validates the request body. The body is bounded
// by Options.MaxBodyBytes: an oversized request surfaces as
// *http.MaxBytesError, which the handlers map to 413.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (PlanRequest, string, error) {
	var req PlanRequest
	if err := decodeInto(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		return req, "", err
	}
	model, err := req.Validate()
	if err != nil {
		return req, "", err
	}
	return req, req.Fingerprint(model), nil
}

// decodeInto strictly decodes a JSON body bounded to max bytes.
func decodeInto(w http.ResponseWriter, r *http.Request, max int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, max))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	return nil
}

// decodeStatus maps a request-decoding failure to its HTTP status: 413 for
// a body over the MaxBodyBytes cap, 400 otherwise.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// wantTrace reports whether the request asked for the search trace.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// admissionStatus maps an admission refusal to its HTTP status.
func admissionStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, fp, err := s.decodeRequest(w, r)
	if err != nil {
		errorJSON(w, decodeStatus(err), err)
		return
	}
	if resp, ok := s.routeToPeer(r, fp, req); ok {
		s.sm.requests.Inc()
		s.sm.latency.ObserveDuration(time.Since(start))
		writeJSON(w, *resp)
		return
	}
	s.sm.requests.Inc()
	s.sm.inFlight.Add(1)
	defer func() {
		s.sm.inFlight.Add(-1)
		s.sm.latency.ObserveDuration(time.Since(start))
	}()

	data, f, created, err := s.admit(fp, req)
	if err != nil {
		s.sm.rejected.Inc()
		errorJSON(w, admissionStatus(err), err)
		return
	}
	if data != nil {
		s.sm.cacheHits.Inc()
		s.sm.completed.Inc()
		writeJSON(w, PlanResponse{Fingerprint: fp, Cached: true, Plan: data})
		return
	}
	s.sm.cacheMisses.Inc()
	if !created {
		s.sm.flightsShared.Inc()
	}

	ctx, cancel := context.WithTimeout(r.Context(), req.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout))
	defer cancel()
	select {
	case <-f.done:
	case <-ctx.Done():
		s.leave(f)
		s.sm.timeouts.Inc()
		errorJSON(w, http.StatusGatewayTimeout, fmt.Errorf("serve: request abandoned: %w", ctx.Err()))
		return
	}
	if f.err != nil {
		s.sm.errors.Inc()
		errorJSON(w, http.StatusInternalServerError, f.err)
		return
	}
	s.sm.completed.Inc()
	resp := PlanResponse{Fingerprint: fp, Shared: !created, Plan: f.data}
	if wantTrace(r) {
		resp.Trace = f.trace
	}
	writeJSON(w, resp)
}

// streamRecord is one NDJSON line of the streaming endpoint. Type is
// "progress" (Explored/Best/BestThroughput set), "plan" (the terminal
// PlanResponse fields set) or "error".
type streamRecord struct {
	Type string `json:"type"`
	// Progress fields.
	Explored       int     `json:"explored,omitempty"`
	Best           string  `json:"best,omitempty"`
	BestThroughput float64 `json:"throughput,omitempty"`
	// Terminal fields.
	Fingerprint string          `json:"fingerprint,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Shared      bool            `json:"shared,omitempty"`
	Plan        json.RawMessage `json:"plan,omitempty"`
	Trace       json.RawMessage `json:"trace,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, fp, err := s.decodeRequest(w, r)
	if err != nil {
		errorJSON(w, decodeStatus(err), err)
		return
	}
	s.sm.requests.Inc()
	s.sm.inFlight.Add(1)
	defer func() {
		s.sm.inFlight.Add(-1)
		s.sm.latency.ObserveDuration(time.Since(start))
	}()

	data, f, created, err := s.admit(fp, req)
	if err != nil {
		s.sm.rejected.Inc()
		errorJSON(w, admissionStatus(err), err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec streamRecord) {
		enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}

	if data != nil {
		s.sm.cacheHits.Inc()
		s.sm.completed.Inc()
		emit(streamRecord{Type: "plan", Fingerprint: fp, Cached: true, Plan: data})
		return
	}
	s.sm.cacheMisses.Inc()
	if !created {
		s.sm.flightsShared.Inc()
	}

	sub := f.subscribe()
	ctx, cancel := context.WithTimeout(r.Context(), req.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout))
	defer cancel()
	for {
		select {
		case ev := <-sub:
			emit(streamRecord{Type: "progress", Explored: ev.Explored, Best: ev.Best, BestThroughput: ev.BestThroughput})
		case <-f.done:
			// Deliver progress still sitting in the buffer (broadcast
			// happens-before finish) so fast runs stream a coherent story.
			for drained := false; !drained; {
				select {
				case ev := <-sub:
					emit(streamRecord{Type: "progress", Explored: ev.Explored, Best: ev.Best, BestThroughput: ev.BestThroughput})
				default:
					drained = true
				}
			}
			if f.err != nil {
				s.sm.errors.Inc()
				emit(streamRecord{Type: "error", Error: f.err.Error()})
				return
			}
			s.sm.completed.Inc()
			term := streamRecord{Type: "plan", Fingerprint: fp, Shared: !created, Plan: f.data}
			if wantTrace(r) {
				term.Trace = f.trace
			}
			emit(term)
			return
		case <-ctx.Done():
			s.leave(f)
			s.sm.timeouts.Inc()
			emit(streamRecord{Type: "error", Error: fmt.Sprintf("serve: request abandoned: %v", ctx.Err())})
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		OK:          !draining,
		Draining:    draining,
		InFlight:    s.sm.inFlight.Value(),
		Queued:      len(s.jobs),
		CachedPlans: s.cache.len(),
	}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrape-time gauges: refreshed here so the registry render is the
	// whole exposition.
	s.sm.queueDepth.Set(int64(len(s.jobs)))
	s.sm.cachedPlans.Set(int64(s.cache.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteProm(w)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(s.flightRec.Dump())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(mario.Models()))
	for name := range mario.Models() {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, map[string][]string{"models": names})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
