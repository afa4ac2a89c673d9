package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/tuner"
)

// This file is the serve half of the distributed planning fleet. A server
// configured with Options.Fleet plays three roles at once:
//
//   - Coordinator: its own branch-and-bound searches run the probe pass
//     locally and dispatch waves of sorted grid points to the fleet over
//     POST /v1/shard (fleetDispatcher, a tuner.ShardDispatcher over the
//     service client). The merged plan is byte-identical to a single-node
//     run for every fleet shape — the tuner's merge contract — so the plan
//     cache and every downstream consumer are fleet-oblivious.
//   - Worker: it answers /v1/shard batches from other coordinators,
//     memoizing a ShardWorker per workload fingerprint so repeated shards
//     of one search share schedule builds and graph results.
//   - Router: with Self set, blocking plan requests are forwarded to the
//     workload's consistent-hash owner, so a fleet computes each plan once
//     and answers repeats from the owner's cache (peer cache hits).
//     Streaming requests always run locally — proxying an NDJSON stream
//     buys nothing over just computing, since the plan is deterministic.

// hashRing is a consistent-hash ring over the fleet members. Each member
// gets ringVnodes virtual points; a fingerprint is owned by the first
// member clockwise from its hash. The ring is deterministic in the member
// list alone, so every member routes identically without coordination.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

const ringVnodes = 64

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newHashRing builds the ring from the member base URLs (deduplicated).
func newHashRing(members []string) *hashRing {
	seen := map[string]bool{}
	r := &hashRing{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owner returns the member owning fp, or "" on an empty ring.
func (r *hashRing) owner(fp string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// fleetState is everything a fleet member holds beyond a standalone server:
// the peer list and their clients, the routing ring, and the shard-worker
// cache serving /v1/shard.
type fleetState struct {
	self    string
	peers   []string // other members, sorted
	clients map[string]*client.Client
	ring    *hashRing // nil unless Self is set
	shards  int
	chunk   int

	mu      sync.Mutex
	workers map[string]*workerEntry // fingerprint → shard worker (LRU)
	order   []string                // LRU order, oldest first
	cap     int
}

type workerEntry struct {
	fp string
	w  *mario.ShardWorker
}

// newFleetState builds the fleet side of a server. It is always non-nil:
// even a server with no Fleet configured keeps the worker cache, because a
// coordinator elsewhere may list it as a peer and dispatch shards to it;
// only dispatch and routing require Fleet/Self.
func newFleetState(opts Options) *fleetState {
	fs := &fleetState{
		self:    opts.Self,
		clients: map[string]*client.Client{},
		workers: map[string]*workerEntry{},
		cap:     opts.WorkerCache,
		shards:  opts.Shards,
		chunk:   opts.ShardChunk,
	}
	seen := map[string]bool{opts.Self: true, "": true}
	for _, p := range opts.Fleet {
		if seen[p] {
			continue
		}
		seen[p] = true
		fs.peers = append(fs.peers, p)
		cl := client.New(p)
		cl.Retries = opts.FleetRetries
		cl.Backoff = opts.FleetBackoff
		fs.clients[p] = cl
	}
	sort.Strings(fs.peers)
	if fs.shards <= 0 {
		fs.shards = len(fs.peers)
	}
	if opts.Self != "" && len(fs.peers) > 0 {
		fs.ring = newHashRing(append([]string{opts.Self}, fs.peers...))
	}
	return fs
}

// workerFor returns the memoized shard worker for a validated workload,
// creating (and LRU-evicting) under the lock. metrics receives the worker
// tuner's simulation counts.
func (fs *fleetState) workerFor(fp string, req PlanRequest, workers int, s *Server) (*mario.ShardWorker, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if e, ok := fs.workers[fp]; ok {
		for i, o := range fs.order {
			if o == fp {
				fs.order = append(append(fs.order[:i:i], fs.order[i+1:]...), fp)
				break
			}
		}
		return e.w, nil
	}
	model, err := req.Validate()
	if err != nil {
		return nil, err
	}
	w, err := mario.NewShardWorker(req.Config(workers), model, s.search)
	if err != nil {
		return nil, err
	}
	fs.workers[fp] = &workerEntry{fp: fp, w: w}
	fs.order = append(fs.order, fp)
	for len(fs.order) > fs.cap {
		old := fs.order[0]
		fs.order = fs.order[1:]
		delete(fs.workers, old)
	}
	return w, nil
}

// handleShard answers one coordinator-dispatched shard batch. Draining
// members refuse with 503 (the coordinator falls back locally), and a
// protocol-version mismatch is a 400 — never a silent best-effort answer.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeInto(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		errorJSON(w, decodeStatus(err), err)
		return
	}
	if req.Proto != api.ShardProtoVersion {
		errorJSON(w, http.StatusBadRequest,
			fmt.Errorf("serve: shard protocol %d, want %d", req.Proto, api.ShardProtoVersion))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		errorJSON(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	s.sm.shardRequests.Inc()
	model, err := req.Workload.Validate()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	fp := req.Workload.Fingerprint(model)
	workers := req.Workload.Workers
	if s.opts.TunerWorkers > 0 && (workers <= 0 || workers > s.opts.TunerWorkers) {
		workers = s.opts.TunerWorkers
	}
	sw, err := s.fleet.workerFor(fp, req.Workload, workers, s)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.Workload.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout))
	defer cancel()
	outcomes, err := sw.EvalShard(ctx, req.Points, req.Incumbent)
	if err != nil {
		s.sm.shardErrors.Inc()
		errorJSON(w, http.StatusInternalServerError, err)
		return
	}
	s.sm.shardPoints.Add(int64(len(outcomes)))
	writeJSON(w, ShardResponse{Proto: api.ShardProtoVersion, Fingerprint: fp, Outcomes: outcomes})
}

// routeToPeer forwards a blocking plan request to the workload's
// consistent-hash owner when that owner is another member. It returns the
// owner's response (with Peer stamped) and true when routing happened; any
// peer failure falls back to local computation — routing is an
// optimization, never a correctness dependency.
func (s *Server) routeToPeer(r *http.Request, fp string, req PlanRequest) (*PlanResponse, bool) {
	fs := s.fleet
	if fs == nil || fs.ring == nil || r.Header.Get(api.RoutedHeader) != "" {
		return nil, false
	}
	owner := fs.ring.owner(fp)
	if owner == "" || owner == fs.self {
		return nil, false
	}
	cl, ok := fs.clients[owner]
	if !ok {
		return nil, false
	}
	resp, err := cl.PlanRouted(r.Context(), req)
	if err != nil {
		s.sm.peerRoutedErr.Inc()
		return nil, false // compute locally instead
	}
	s.sm.peerRoutedOK.Inc()
	resp.Peer = owner
	return resp, true
}

// fleetDispatcher adapts the fleet's /v1/shard protocol to the tuner's
// ShardDispatcher interface for one coordinator search. Shard s of a wave
// goes to peer s mod len(peers); the workload request travels with every
// batch so workers resolve (and memoize) the right grid.
type fleetDispatcher struct {
	s        *Server
	fs       *fleetState
	workload PlanRequest
}

func (d *fleetDispatcher) Shards() int    { return d.fs.shards }
func (d *fleetDispatcher) ChunkSize() int { return d.fs.chunk }

func (d *fleetDispatcher) Dispatch(ctx context.Context, shard int, points []tuner.ShardPoint, incumbent float64, hasIncumbent bool) ([]tuner.ShardOutcome, error) {
	peer := d.fs.peers[shard%len(d.fs.peers)]
	req := api.ShardRequest{Proto: api.ShardProtoVersion, Workload: d.workload, Points: points}
	if hasIncumbent {
		inc := incumbent
		req.Incumbent = &inc
	}
	resp, err := d.fs.clients[peer].Shard(ctx, req)
	if err != nil {
		d.s.sm.shardDispatchErr.Inc()
		return nil, err
	}
	d.s.sm.shardDispatchOK.Inc()
	return resp.Outcomes, nil
}

// sharderFor returns the dispatcher for one coordinator search, or nil
// when the server has no fleet to dispatch to.
func (s *Server) sharderFor(req PlanRequest) tuner.ShardDispatcher {
	if s.fleet == nil || len(s.fleet.peers) == 0 {
		return nil
	}
	return &fleetDispatcher{s: s, fs: s.fleet, workload: req}
}
