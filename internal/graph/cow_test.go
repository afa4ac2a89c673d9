package graph

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// TestPassesDoNotLeakIntoParent: under copy-on-write Clone, every mutating
// pass applied to a clone must leave the parent schedule byte-identical —
// each call site must route its edits through MutableList/SetList.
func TestPassesDoNotLeakIntoParent(t *testing.T) {
	e := cost.Uniform(4, 1, 2, 0.25)
	passes := map[string]func(*pipeline.Schedule){
		"ApplyCheckpoint":  ApplyCheckpoint,
		"OverlapRecompute": func(s *pipeline.Schedule) { ApplyCheckpoint(s); OverlapRecompute(s) },
		"RemoveRedundancy": func(s *pipeline.Schedule) { ApplyCheckpoint(s); RemoveRedundancy(s) },
		"preposeDevice": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			for d := 0; d < s.NumDevices(); d++ {
				if c, ok := preposeDevice(s, d); ok {
					// The candidate's own edits must not reach s either.
					cl := c.MutableList(d)
					if len(cl) > 0 {
						cl[0].Kind = pipeline.OptimizerStep
					}
				}
			}
		},
		"promoteBufferedSends": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			promoteBufferedSends(s)
		},
		"splitAll": func(s *pipeline.Schedule) { splitAll(s) },
		"sinkWeightGrads": func(s *pipeline.Schedule) {
			c := splitAll(s)
			for d := 0; d < c.NumDevices(); d++ {
				sinkWeightGrads(c, d)
			}
		},
		"Optimize": func(s *pipeline.Schedule) {
			if _, _, err := Optimize(s, Options{Estimator: e}); err != nil {
				t.Fatal(err)
			}
		},
		"SplitBackward": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			OverlapRecompute(s)
			if _, _, err := SplitBackward(s, Options{Estimator: e}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, pass := range passes {
		t.Run(name, func(t *testing.T) {
			parent := build1f1b(t, 4, 8)
			want := parent.String()
			pass(parent.Clone())
			if got := parent.String(); got != want {
				t.Errorf("pass mutated the parent schedule through a shared list\nbefore:\n%s\nafter:\n%s", want, got)
			}
		})
	}
}

// TestOptimizeInputUnmodified re-pins Optimize's documented contract ("the
// input is not modified") now that the initial Clone is copy-on-write.
func TestOptimizeInputUnmodified(t *testing.T) {
	s := build1f1b(t, 4, 8)
	want := s.String()
	e := cost.Uniform(4, 1, 2, 0.25)
	if _, _, err := Optimize(s, Options{Estimator: e}); err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != want {
		t.Errorf("Optimize modified its input:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestListPoolSafety pins the candidate-buffer recycling contract: endRound
// must never recycle a list that is part of the current schedule, and after
// it recycles a retired list the engine may no longer key a cache entry on
// that buffer (Simulator.Holds must be false), so the next getList can hand
// the buffer out without aliasing a cached identity. Re-simulating the
// current schedule afterwards must still agree bit-for-bit with a fresh
// simulation.
func TestListPoolSafety(t *testing.T) {
	s := build1f1b(t, 4, 8)
	ApplyCheckpoint(s)
	e := cost.Uniform(4, 1, 2, 0.25)
	opts := sim.Options{NoTimeline: true}
	eng := newEngines()

	// Candidate on device 0, simulated so the engine caches it.
	c := s.Clone()
	if !preposeList(eng, c, 0) {
		t.Fatal("no group to prepose on device 0")
	}
	cl := c.Lists[0]
	if _, err := eng.main.Simulate(c, e, opts); err != nil {
		t.Fatal(err)
	}
	if !eng.main.Holds(0, cl) {
		t.Fatal("engine should cache the candidate list before endRound")
	}

	// The candidate lost: cur stays s, so endRound must recycle its list and
	// evict it from the engine.
	eng.endRound(s)
	if len(eng.free) != 1 || len(eng.tracked) != 0 {
		t.Fatalf("after losing round: free=%d tracked=%d, want 1 and 0", len(eng.free), len(eng.tracked))
	}
	if eng.main.Holds(0, cl) {
		t.Error("engine still holds the recycled list")
	}
	buf := eng.getList(len(cl))
	if len(cl) == 0 || &buf[:1][0] != &cl[:1][0] {
		t.Error("getList did not hand back the recycled buffer")
	}
	// Reuse is the hazard the Holds protocol guards against: overwrite the
	// recycled buffer with unrelated content. Every cache entry that keys on
	// it by identity — the active entry and the depth-2 revert snapshot —
	// must already have dropped it, or the bit-for-bit re-simulation below
	// reads this garbage.
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = pipeline.Instr{Kind: pipeline.OptimizerStep, Micro: pipeline.NoMicro}
	}

	// A winning candidate's list is part of cur and must stay out of the pool.
	w := s.Clone()
	if !preposeList(eng, w, 1) {
		t.Fatal("no group to prepose on device 1")
	}
	wl := w.Lists[1]
	eng.endRound(w)
	if len(eng.free) != 0 || len(eng.tracked) != 1 || !sameList(eng.tracked[0].list, wl) {
		t.Fatalf("winning list was not kept tracked (free=%d tracked=%d)", len(eng.free), len(eng.tracked))
	}

	// Cache integrity after the evictions: engine re-simulation of the winner
	// agrees bit-for-bit with a fresh one-shot simulation.
	want, err := sim.Simulate(w, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.main.Simulate(w, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-eviction result differs from fresh simulation (%.17g vs %.17g)", got.Total, want.Total)
	}
}

// TestOptimizeWorkerDeterminism: the tuner's workers call Optimize
// concurrently on frozen (memoized) schedules, each drawing a warm engine
// bundle from the shared pool. Every call must return a byte-identical
// schedule and a bit-identical simulation result for every number of
// concurrent callers. Run under -race this also proves the engine pool and
// the copy-on-write share marks are data-race free.
func TestOptimizeWorkerDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		scheme pipeline.Scheme
		cfg    scheme.Config
		stages int
	}{
		{"1f1b-8x16", pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 16}, 8},
		{"chimera-8x8", pipeline.SchemeChimera, scheme.Config{Devices: 8, Micros: 8}, 8},
		{"interleave-4x8", pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scheme.Build(tc.scheme, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Freeze()
			e := cost.Uniform(tc.stages, 1, 2, 0.25)
			opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}

			type out struct {
				sched string
				res   *sim.Result
				err   error
			}
			base, res, err := Optimize(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := out{sched: base.String(), res: res}
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				outs := make([]out, w)
				var wg sync.WaitGroup
				for i := range outs {
					wg.Add(1)
					go func(o *out) {
						defer wg.Done()
						optSched, res, err := Optimize(s, opts)
						if err == nil {
							o.sched, o.res = optSched.String(), res
						}
						o.err = err
					}(&outs[i])
				}
				wg.Wait()
				for i, got := range outs {
					if got.err != nil {
						t.Fatalf("callers=%d #%d: %v", w, i, got.err)
					}
					if got.sched != want.sched {
						t.Errorf("callers=%d #%d: schedule differs from a lone call", w, i)
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("callers=%d #%d: result differs from a lone call (%.17g vs %.17g)", w, i, got.res.Total, want.res.Total)
					}
				}
			}
		})
	}
}
