package graph

import (
	"context"
	"errors"
	"sync"

	"mario/internal/pipeline"
	"mario/internal/sim"
)

// engines bundles the reusable Simulator an Optimize run evaluates its
// candidates on with the run's candidate-list buffers. Reusing the engine
// across rounds is what makes candidate evaluation allocation-free — each
// candidate shares all but one list with the current schedule, so only that
// device's metadata is rebuilt.
type engines struct {
	main *sim.Simulator

	// Candidate-list buffer pool. Lists built for losing candidates are
	// recycled once the engine no longer caches their identity
	// (Simulator.Holds) and they are not part of the current schedule;
	// tracked remembers which device each created list was set on, since the
	// engine only ever caches a list under that device's slot.
	free    [][]pipeline.Instr
	tracked []trackedList

	// sims0 is main.Sims at acquire time; sims() subtracts it so pooled
	// reuse never double-counts telemetry.
	sims0 int64

	feas feasScratch
}

// feasScratch is the reusable state of engines.feasible.
type feasScratch struct {
	sendKeys [][]pipeline.Key // per link: keys of its sends, in push order
	recvOrd  []int32          // per link: receives popped so far
	sentByPC []int32          // per link: sends executed so far
	recvWait []int32          // per link: device blocked on it, -1 none
	pc       []int32          // per device: next instruction index
	queue    []int32
	inQueue  []bool
	// Placement-peer cache: PeerDevice is placement-determined and
	// device-independent for communication kinds, so (kind, part, stage)
	// fully keys the answer across all the candidates of one run.
	placement pipeline.Placement
	peerTab   []int32
}

// linkFor resolves the flat link id of a communication instruction through
// the scratch's peer cache (same layout as linkOf, minus the repeated
// placement walks).
func (f *feasScratch) linkFor(s *pipeline.Schedule, D, d int, in pipeline.Instr, nParts, nStages int) int {
	if in.Part < 0 || in.Part >= nParts || in.Stage < 0 || in.Stage >= nStages {
		return linkOf(s, D, d, in)
	}
	ci := (commKindIdx(in.Kind)*nParts+in.Part)*nStages + in.Stage
	peer := f.peerTab[ci]
	if peer == -2 {
		peer = int32(s.PeerDevice(d, in))
		f.peerTab[ci] = peer
	}
	if peer < 0 || int(peer) >= D {
		return -1
	}
	ch := 0
	if in.Kind == pipeline.SendGrad || in.Kind == pipeline.RecvGrad {
		ch = 1
	}
	if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
		return (d*D+int(peer))*2 + ch
	}
	return (int(peer)*D+d)*2 + ch
}

// commKindIdx maps the four communication kinds to 0..3 for flat tables.
func commKindIdx(k pipeline.Kind) int {
	switch k {
	case pipeline.SendAct:
		return 0
	case pipeline.RecvAct:
		return 1
	case pipeline.SendGrad:
		return 2
	default:
		return 3
	}
}

// feasible reports whether every instruction of the schedule can execute
// under the eager FIFO link semantics the simulator implements: per link
// (sender, receiver, channel) messages are delivered in the sender's list
// order and popped in the receiver's list order, with each pop requiring the
// matching key. Sends never block, so executability — including the
// deadlock/mismatch verdict — is independent of timing, and this untimed
// check is exactly "Simulate would not return ErrDeadlock/ErrCommMismatch".
// The prepose driver screens candidates with it before paying for a
// simulation: illegal candidates are skipped either way, so the optimization
// result is unchanged.
func (e *engines) feasible(s *pipeline.Schedule) bool {
	D := s.NumDevices()
	nl := 2 * D * D
	nParts := s.Placement.NumParts()
	nStages := s.Placement.NumStages()
	f := &e.feas
	f.sendKeys = growOuter(f.sendKeys, nl)
	f.recvOrd = growI32(f.recvOrd, nl)
	f.sentByPC = growI32(f.sentByPC, nl)
	f.recvWait = growI32(f.recvWait, nl)
	f.pc = growI32(f.pc, D)
	f.inQueue = growBools(f.inQueue, D)
	if f.placement != s.Placement || len(f.peerTab) != 4*nParts*nStages {
		f.placement = s.Placement
		f.peerTab = growI32(f.peerTab, 4*nParts*nStages)
		for i := range f.peerTab {
			f.peerTab[i] = -2
		}
	}
	for l := 0; l < nl; l++ {
		f.sendKeys[l] = f.sendKeys[l][:0]
		f.recvOrd[l] = 0
		f.sentByPC[l] = 0
		f.recvWait[l] = -1
	}
	// Gather each link's send-key sequence (the order messages arrive in).
	for d := 0; d < D; d++ {
		for _, in := range s.Lists[d] {
			if in.Kind != pipeline.SendAct && in.Kind != pipeline.SendGrad {
				continue
			}
			l := f.linkFor(s, D, d, in, nParts, nStages)
			if l < 0 {
				return false // dangling peer; Simulate would reject it too
			}
			f.sendKeys[l] = append(f.sendKeys[l], in.Key())
		}
	}
	// Untimed execution: run every device until it blocks on an undelivered
	// message; a send wakes the link's waiting receiver. All-executed means
	// feasible; a blocked or mispaired pop means Simulate errors.
	f.queue = f.queue[:0]
	for d := 0; d < D; d++ {
		f.pc[d] = 0
		f.inQueue[d] = true
		f.queue = append(f.queue, int32(d))
	}
	done := 0
	for head := 0; head < len(f.queue); head++ {
		d := int(f.queue[head])
		f.inQueue[d] = false
		list := s.Lists[d]
		i := int(f.pc[d])
		blocked := false
		for i < len(list) && !blocked {
			in := list[i]
			switch in.Kind {
			case pipeline.SendAct, pipeline.SendGrad:
				l := f.linkFor(s, D, d, in, nParts, nStages)
				f.sentByPC[l]++
				if w := f.recvWait[l]; w >= 0 {
					f.recvWait[l] = -1
					if !f.inQueue[w] {
						f.inQueue[w] = true
						f.queue = append(f.queue, w)
					}
				}
			case pipeline.RecvAct, pipeline.RecvGrad:
				l := f.linkFor(s, D, d, in, nParts, nStages)
				if l < 0 {
					return false
				}
				k := f.recvOrd[l]
				if k >= f.sentByPC[l] {
					// Not delivered yet; block here until the sender pushes.
					f.recvWait[l] = int32(d)
					blocked = true
					continue
				}
				sk := f.sendKeys[l][k]
				send := pipeline.Instr{Kind: sk.Kind, Micro: sk.Micro, Part: sk.Part, Stage: sk.Stage}
				if s.MatchKey(send) != in.Key() {
					return false // mispaired pop: ErrCommMismatch
				}
				f.recvOrd[l] = k + 1
			}
			i++
		}
		f.pc[d] = int32(i)
		if !blocked {
			done++
		}
	}
	return done == D
}

// linkOf returns the flat id of the FIFO link a communication instruction of
// device d uses — (sender, receiver, channel) like the simulator's — or -1
// when the placement peer falls outside the device range.
func linkOf(s *pipeline.Schedule, D, d int, in pipeline.Instr) int {
	peer := s.PeerDevice(d, in)
	if peer < 0 || peer >= D {
		return -1
	}
	ch := 0
	if in.Kind == pipeline.SendGrad || in.Kind == pipeline.RecvGrad {
		ch = 1
	}
	if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
		return (d*D+peer)*2 + ch
	}
	return (peer*D+d)*2 + ch
}

func growOuter(s [][]pipeline.Key, n int) [][]pipeline.Key {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([][]pipeline.Key, n)
	copy(grown, s)
	return grown
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

type trackedList struct {
	dev  int
	list []pipeline.Instr
}

func newEngines() *engines {
	return &engines{main: &sim.Simulator{}}
}

// engPool recycles engine bundles across Optimize calls so a tuner sweeping
// hundreds of grid points reuses warm simulator buffers instead of
// reallocating them per point.
var engPool = sync.Pool{New: func() any { return newEngines() }}

// acquireEngines returns a pooled bundle with its counter rebased so sims()
// reports this run's simulations only.
func acquireEngines() *engines {
	e := engPool.Get().(*engines)
	e.sims0 = e.main.Sims
	return e
}

// release returns the bundle to the pool. Result lists escape to the caller,
// so tracked entries are dropped without recycling their buffers (free-list
// buffers never appear in a result and stay pooled).
func (e *engines) release() {
	for i := range e.tracked {
		e.tracked[i] = trackedList{}
	}
	e.tracked = e.tracked[:0]
	// The engine re-keys its caches onto owned copies: a pooled bundle often
	// sees a near-identical schedule next (tuner grid neighbours), so its
	// warm metadata keeps paying off.
	e.main.Detach()
	engPool.Put(e)
}

// getList returns an empty instruction list with capacity for at least n
// entries, reusing a recycled candidate buffer when one fits.
func (e *engines) getList(n int) []pipeline.Instr {
	for i := len(e.free) - 1; i >= 0; i-- {
		if cap(e.free[i]) >= n {
			l := e.free[i][:0]
			e.free[i] = e.free[len(e.free)-1]
			e.free[len(e.free)-1] = nil
			e.free = e.free[:len(e.free)-1]
			return l
		}
	}
	return make([]pipeline.Instr, 0, n)
}

func (e *engines) track(dev int, list []pipeline.Instr) {
	e.tracked = append(e.tracked, trackedList{dev: dev, list: list})
}

// endRound recycles candidate-list buffers the finished round retired: every
// tracked list that is not part of cur returns to the free pool, after
// evicting any engine cache entry still keyed on it (such entries are stale —
// future candidates derive from cur, so a retired identity can never match
// again). Lists in cur stay tracked and are re-checked after later rounds.
func (e *engines) endRound(cur *pipeline.Schedule) {
	kept := e.tracked[:0]
	for _, t := range e.tracked {
		if sameList(cur.Lists[t.dev], t.list) {
			kept = append(kept, t)
			continue
		}
		e.main.Forget(t.dev, t.list)
		e.free = append(e.free, t.list)
	}
	for i := len(kept); i < len(e.tracked); i++ {
		e.tracked[i] = trackedList{}
	}
	e.tracked = kept
}

func sameList(a, b []pipeline.Instr) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// sims reports the Simulate calls issued since this bundle was acquired; the
// driver folds the total into the telemetry registry.
func (e *engines) sims() int64 {
	return e.main.Sims - e.sims0
}

// A forward group is the contiguous [RecvAct?, CkptForward, SendAct?] run of
// one micro-batch on one device. Pass 4 moves such groups from the steady
// phase into the leading bubble region ("prepose the checkpointed forward
// instructions to the earliest pipeline bubbles").
type fwGroup struct {
	start, end int // half-open index range in the device list
	cfwIdx     int
	saIdx      int // index of the SendAct inside [start,end) or -1
}

// findBoundary returns the index of the first backward-like compute
// instruction (Backward or Recompute) on the list; preposed groups are
// inserted immediately before it. Returns -1 when the device has no
// backward region (nothing to prepose past).
func findBoundary(list []pipeline.Instr) int {
	for i, in := range list {
		if in.Kind == pipeline.Backward || in.Kind == pipeline.Recompute {
			return i
		}
	}
	return -1
}

// nextGroupAfter locates the first forward group starting at or after idx.
func nextGroupAfter(list []pipeline.Instr, idx int) (fwGroup, bool) {
	for i := idx; i < len(list); i++ {
		if list[i].Kind != pipeline.CkptForward {
			continue
		}
		g := fwGroup{start: i, end: i + 1, cfwIdx: i, saIdx: -1}
		if i > 0 && list[i-1].Kind == pipeline.RecvAct &&
			list[i-1].Micro == list[i].Micro && list[i-1].Stage == list[i].Stage {
			g.start = i - 1
		}
		if i+1 < len(list) && list[i+1].Kind == pipeline.SendAct &&
			list[i+1].Micro == list[i].Micro && list[i+1].Stage == list[i].Stage {
			g.end = i + 2
			g.saIdx = i + 1
		}
		return g, true
	}
	return fwGroup{}, false
}

// consumerPreposed reports whether the consumer of the (micro, stage)
// activation executes its forward inside its own leading forward region —
// §5.1 pass 4's "CFW in the next device is also preposed" test, which
// decides whether the SendAct may travel with the CkptForward or must stay
// buffered in place.
func consumerPreposed(s *pipeline.Schedule, micro, part, stage int) bool {
	if stage+1 >= s.NumStages() {
		return true // no consumer; nothing constrains the send
	}
	sa := pipeline.Instr{Kind: pipeline.SendAct, Micro: micro, Part: part, Stage: stage}
	dev := s.PeerDevice(s.Placement.Device(part, stage), sa)
	list := s.Lists[dev]
	b := findBoundary(list)
	if b < 0 {
		return true
	}
	match := s.MatchKey(sa)
	for i := 0; i < b; i++ {
		in := list[i]
		if in.Kind == pipeline.RecvAct && in.Key() == match {
			return true
		}
	}
	return false
}

// canPrepose reports whether a device list has a steady-phase forward group
// left to move — the cheap pre-check that avoids cloning a schedule for a
// device that cannot produce a candidate.
func canPrepose(list []pipeline.Instr) bool {
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	_, ok := nextGroupAfter(list, b)
	return ok
}

// preposeReorders reports whether moving device d's next steady-phase
// forward group would reorder the device's sends or receives on some FIFO
// link relative to same-link communication it crosses. A single-device
// candidate with such a reorder is guaranteed to deadlock or comm-mismatch —
// the peers' pop and push orders are unchanged, so the first affected pop
// meets the wrong key — and the per-device scan skips simulating it. The
// composite candidate must not use this test: it rewrites both endpoints of
// a link, and matching reorders on the two sides can cancel out.
func preposeReorders(s *pipeline.Schedule, d int) bool {
	list := s.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok {
		return false
	}
	cfw := list[g.cfwIdx]
	moveSA := g.saIdx >= 0 && consumerPreposed(s, cfw.Micro, cfw.Part, cfw.Stage)
	hasRA := g.start < g.cfwIdx
	for i := b; i < g.start; i++ {
		in := list[i]
		switch in.Kind {
		case pipeline.RecvAct:
			if hasRA && s.PeerDevice(d, in) == s.PeerDevice(d, list[g.start]) {
				return true
			}
		case pipeline.SendAct:
			if moveSA && s.PeerDevice(d, in) == s.PeerDevice(d, list[g.saIdx]) {
				return true
			}
		}
	}
	return false
}

// preposeBlocked reports whether the single-device prepose candidate for
// device d is guaranteed to deadlock on a two-device wait cycle: the moved
// group's RecvAct blocks d at the insertion point, while the producing peer
// sits behind a RecvGrad whose matching SendGrad on d is ordered after that
// insertion point (every SendGrad follows its Backward, hence the boundary).
// Neither device can advance, so the simulation is skipped. Cycles through
// third devices are left for the simulator to detect.
func preposeBlocked(s *pipeline.Schedule, d int) bool {
	list := s.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok || g.start == g.cfwIdx {
		return false // no RecvAct travels with the group
	}
	ra := list[g.start]
	p := s.PeerDevice(d, ra)
	match := s.MatchKey(ra)
	for _, in := range s.Lists[p] {
		if in.Key() == match {
			return false // producer send reachable before any grad wait on d
		}
		if in.Kind != pipeline.RecvGrad || s.PeerDevice(p, in) != d {
			continue
		}
		// The peer waits for a gradient from d. Its SendGrad on d follows
		// d's first backward, i.e. lands after the moved group's insertion
		// point — unless it was somehow already in the forward prefix.
		sg := s.MatchKey(in)
		early := false
		for i := 0; i < b; i++ {
			if list[i].Key() == sg {
				early = true
				break
			}
		}
		if !early {
			return true
		}
	}
	return false
}

// preposeDevice builds a candidate schedule with the next steady-phase
// forward group of device d moved to the leading bubble region. It returns
// false when the device has no group to prepose.
func preposeDevice(s *pipeline.Schedule, d int) (*pipeline.Schedule, bool) {
	if !canPrepose(s.Lists[d]) {
		return nil, false
	}
	c := s.Clone()
	preposeList(nil, c, d)
	return c, true
}

// preposeList rewrites device d of c in place, moving its next steady-phase
// forward group to the leading bubble region. The caller owns c (a private
// clone of the candidate base); when eng is non-nil the rewritten list is
// drawn from and tracked by the engines' buffer pool. Returns false when the
// device has no group to move.
func preposeList(eng *engines, c *pipeline.Schedule, d int) bool {
	list := c.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok {
		return false
	}
	cfw := list[g.cfwIdx]
	moveSA := g.saIdx >= 0 && consumerPreposed(c, cfw.Micro, cfw.Part, cfw.Stage)

	var nl []pipeline.Instr
	if eng != nil {
		nl = eng.getList(len(list))
	} else {
		nl = make([]pipeline.Instr, 0, len(list))
	}
	var movedArr [3]pipeline.Instr
	moved := movedArr[:0]
	for i := g.start; i < g.end; i++ {
		if i == g.saIdx && !moveSA {
			continue
		}
		moved = append(moved, list[i])
	}
	for i := 0; i < len(list); i++ {
		if i == b {
			nl = append(nl, moved...)
		}
		if i >= g.start && i < g.end {
			if i == g.saIdx && !moveSA {
				// SendAct stays put, reading from the staging buffer
				// (§5.1 pass 4 scenario 2).
				sa := list[i]
				sa.Buffered = true
				nl = append(nl, sa)
			}
			continue
		}
		nl = append(nl, list[i])
	}
	c.SetList(d, nl)
	if eng != nil {
		eng.track(d, nl)
	}
	return true
}

// promoteBufferedSends builds a candidate where every Buffered SendAct whose
// consumer has since been preposed is moved back next to its CkptForward.
// Returns false when nothing was promotable.
func promoteBufferedSends(s *pipeline.Schedule) (*pipeline.Schedule, bool) {
	c := s.Clone()
	changed := false
	for d := range c.Lists {
		list := c.Lists[d]
		mutable := false
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.SendAct || !in.Buffered {
				continue
			}
			if !consumerPreposed(c, in.Micro, in.Part, in.Stage) {
				continue
			}
			// Find the producing CkptForward and move the send right after it.
			for j := 0; j < i; j++ {
				p := list[j]
				if p.Kind == pipeline.CkptForward && p.Micro == in.Micro && p.Stage == in.Stage {
					if !mutable {
						list = c.MutableList(d)
						mutable = true
					}
					in.Buffered = false
					copy(list[j+2:i+1], list[j+1:i])
					list[j+1] = in
					changed = true
					break
				}
			}
		}
	}
	return c, changed
}

// simCandidate evaluates one candidate on the given engine. It returns a nil
// result (and nil error) when the candidate is illegal — deadlocked,
// comm-mismatched, or over the memory limit — and must simply be skipped.
func simCandidate(eng *sim.Simulator, c *pipeline.Schedule, opt Options) (*sim.Result, error) {
	r, err := eng.Simulate(c, opt.Estimator, opt.Sim)
	if err != nil {
		if errors.Is(err, sim.ErrCommMismatch) || errors.Is(err, sim.ErrDeadlock) {
			return nil, nil
		}
		return nil, err
	}
	if opt.Sim.MemLimit > 0 && r.OOM {
		return nil, nil
	}
	return r, nil
}

// preposeRound evaluates one greedy round of pass 4: preposing one group on
// each single device, preposing one group on all devices at once (to enable
// cascaded moves none of which helps alone), and promoting buffered sends.
// The best strictly-improving, non-OOM candidate wins; candidates are
// scanned in a fixed order and an exact makespan tie goes to the earlier
// one. budget bounds the number of group moves this round may perform
// (negative = unlimited); the round reports how many it used.
//
// ctx is checked before each candidate simulation; a cancelled round returns
// ctx's error.
func preposeRound(ctx context.Context, cur *pipeline.Schedule, best *sim.Result, opt Options, budget int, eng *engines) (*pipeline.Schedule, *sim.Result, int, error) {
	type cand struct {
		s     *pipeline.Schedule
		r     *sim.Result
		moves int
	}
	var winner *cand

	const eps = 1e-12
	try := func(c *pipeline.Schedule, moves int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := simCandidate(eng.main, c, opt)
		if err != nil {
			return err
		}
		if r != nil && r.Total < best.Total-eps && (winner == nil || r.Total < winner.r.Total) {
			winner = &cand{s: c, r: r, moves: moves}
		}
		return nil
	}

	if c, ok := promoteBufferedSends(cur); ok {
		if err := try(c, 0); err != nil {
			return nil, nil, 0, err
		}
	}
	// Composite candidate — one prepose on every device — because the
	// cascaded move is both the usual winner and a single simulation. Only
	// when it fails to improve do we pay for the per-device scan. One clone
	// serves all the device rewrites; it is created lazily so a round with no
	// movable groups allocates nothing.
	var comp *pipeline.Schedule
	moves := 0
	for d := 0; d < cur.NumDevices(); d++ {
		if budget >= 0 && moves >= budget {
			break
		}
		if comp == nil {
			if !canPrepose(cur.Lists[d]) {
				continue
			}
			comp = cur.Clone()
		}
		if preposeList(eng, comp, d) {
			moves++
		}
	}
	if moves > 0 && eng.feasible(comp) {
		if err := try(comp, moves); err != nil {
			return nil, nil, 0, err
		}
	}
	if winner == nil && (budget < 0 || budget >= 1) {
		for d := 0; d < cur.NumDevices(); d++ {
			if !canPrepose(cur.Lists[d]) || preposeReorders(cur, d) || preposeBlocked(cur, d) {
				continue
			}
			c := cur.Clone()
			preposeList(eng, c, d)
			if err := try(c, 1); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	if winner == nil {
		return cur, best, 0, nil
	}
	return winner.s, winner.r, winner.moves, nil
}
