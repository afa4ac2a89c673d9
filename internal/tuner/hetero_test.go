package tuner

import (
	"reflect"
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
)

// heteroSpace is detSpace with one slow device and the auto placement axis:
// every heterogeneous grid point carries a partitioning/placement assignment.
func heteroSpace(workers int) Space {
	sp := detSpace(workers)
	sp.DeviceSpeeds = []float64{1, 1, 0.8, 1, 1, 1, 1, 1}
	return sp
}

// TestPlacementModes pins the axis-enumeration contract: homogeneous spaces
// keep the legacy empty mode (byte-identical searches), heterogeneous auto
// explores uniform and co-opt, and forced modes collapse to one point each.
func TestPlacementModes(t *testing.T) {
	homog := detSpace(1).withDefaults()
	if got := placementModes(homog); !reflect.DeepEqual(got, []place.Mode{""}) {
		t.Errorf("homogeneous auto modes = %v, want [\"\"]", got)
	}
	homogCo := detSpace(1)
	homogCo.Placement = place.ModeCoOpt
	if got := placementModes(homogCo.withDefaults()); !reflect.DeepEqual(got, []place.Mode{place.ModeCoOpt}) {
		t.Errorf("homogeneous coopt modes = %v", got)
	}
	het := heteroSpace(1).withDefaults()
	if got := placementModes(het); !reflect.DeepEqual(got, []place.Mode{place.ModeUniform, place.ModeCoOpt}) {
		t.Errorf("heterogeneous auto modes = %v", got)
	}
	hetUni := heteroSpace(1)
	hetUni.Placement = place.ModeUniform
	if got := placementModes(hetUni.withDefaults()); !reflect.DeepEqual(got, []place.Mode{place.ModeUniform}) {
		t.Errorf("heterogeneous uniform modes = %v", got)
	}
}

// TestAllOnesSpeedsAreLegacy: declaring every device at nominal speed must
// normalize to the speed-free space and emit byte-identical output — the
// placement axis never perturbs a homogeneous search.
func TestAllOnesSpeedsAreLegacy(t *testing.T) {
	base := runSpace(t, detSpace(1), nil)
	ones := detSpace(1)
	ones.DeviceSpeeds = []float64{1, 1, 1, 1, 1, 1, 1, 1}
	got := runSpace(t, ones, nil)
	if got.best != base.best {
		t.Errorf("all-ones speeds changed the best:\n got: %s\nwant: %s", got.best, base.best)
	}
	if got.stats != base.stats {
		t.Errorf("all-ones speeds changed stats: %+v vs %+v", got.stats, base.stats)
	}
	if len(got.trace) != len(base.trace) {
		t.Fatalf("trace length %d vs %d", len(got.trace), len(base.trace))
	}
	for i := range got.trace {
		if got.trace[i] != base.trace[i] {
			t.Errorf("trace[%d] differs\n got: %s\nwant: %s", i, got.trace[i], base.trace[i])
			break
		}
	}
}

// TestHeteroDeterministicAcrossWorkers extends the worker-independence
// guarantee over the placement axis: the best candidate, trace, progress
// sequence and stats are byte-identical for Workers ∈ {1, 4}.
func TestHeteroDeterministicAcrossWorkers(t *testing.T) {
	base := runSpace(t, heteroSpace(1), nil)
	if base.stats.Explored == 0 {
		t.Fatal("sequential hetero baseline explored nothing")
	}
	foundPlaced := false
	for _, s := range base.trace {
		if strings.Contains(s, "+uniform") || strings.Contains(s, "+coopt") {
			foundPlaced = true
			break
		}
	}
	if !foundPlaced {
		t.Fatal("hetero trace carries no placement-labelled candidates")
	}
	got := runSpace(t, heteroSpace(4), nil)
	if got.stats != base.stats {
		t.Errorf("workers=4: stats %+v, want %+v", got.stats, base.stats)
	}
	if got.best != base.best {
		t.Errorf("workers=4: best differs\n got: %s\nwant: %s", got.best, base.best)
	}
	if len(got.trace) != len(base.trace) {
		t.Fatalf("workers=4: trace length %d, want %d", len(got.trace), len(base.trace))
	}
	for i := range got.trace {
		if got.trace[i] != base.trace[i] {
			t.Errorf("workers=4: trace[%d] differs\n got: %s\nwant: %s", i, got.trace[i], base.trace[i])
			break
		}
	}
	if len(got.progress) != len(base.progress) {
		t.Fatalf("workers=4: %d progress callbacks, want %d", len(got.progress), len(base.progress))
	}
	for i := range got.progress {
		if got.progress[i] != base.progress[i] {
			t.Errorf("workers=4: progress[%d] = %q, want %q", i, got.progress[i], base.progress[i])
			break
		}
	}
}

// TestHeteroBnBMatchesGridArgmax extends the strategy-equivalence contract
// over the placement axis: the search, the search under NoPrune and the
// exhaustive oracle agree on the best candidate and on the structural
// prune/feasible partition of the heterogeneous grid.
func TestHeteroBnBMatchesGridArgmax(t *testing.T) {
	cases := []struct {
		name string
		sp   Space
	}{
		{"hetero-auto", heteroSpace(1)},
		{"hetero-coopt", func() Space {
			sp := heteroSpace(1)
			sp.Placement = place.ModeCoOpt
			return sp
		}()},
		{"homog-coopt", func() Space {
			sp := detSpace(1)
			sp.Placement = place.ModeCoOpt
			return sp
		}()},
		{"hetero-1f1b-mem", Space{
			Devices:      8,
			GlobalBatch:  32,
			Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeGPipe},
			MicroBatches: []int{1, 2},
			DeviceMem:    cost.A100_40G.MemBytes,
			Workers:      1,
			DeviceSpeeds: []float64{1, 0.7, 1, 1, 1, 1, 1, 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bnb := runStrategy(tc.sp, nil)

			grid := runOracle(tc.sp, nil).out()

			fullSp := tc.sp
			fullSp.NoPrune = true
			full := runStrategy(fullSp, nil)

			if bnb.err != "" || grid.err != "" || full.err != "" {
				t.Fatalf("unexpected errors: bnb=%q oracle=%q full=%q", bnb.err, grid.err, full.err)
			}
			if bnb.best != grid.best {
				t.Errorf("bnb best differs from oracle best:\n   bnb: %s\noracle: %s", bnb.best, grid.best)
			}
			if bnb.best != full.best {
				t.Errorf("bnb best differs from exhaustive best:\n bnb: %s\nfull: %s", bnb.best, full.best)
			}
			if bnb.pruned != grid.pruned || bnb.feasible != grid.feasible {
				t.Errorf("invariant digest differs bnb=(%d,%d) oracle=(%d,%d)",
					bnb.pruned, bnb.feasible, grid.pruned, grid.feasible)
			}
			if bnb.pruned != full.pruned || bnb.feasible != full.feasible {
				t.Errorf("invariant digest differs bnb=(%d,%d) full=(%d,%d)",
					bnb.pruned, bnb.feasible, full.pruned, full.feasible)
			}
		})
	}
}

// TestHeteroCandidateAssignment: every heterogeneous candidate must carry a
// well-formed assignment — the partition covers the model's layers, the
// placement is a permutation, and the label advertises the mode.
func TestHeteroCandidateAssignment(t *testing.T) {
	tn := newTuner()
	sp := heteroSpace(1)
	best, trace, err := tn.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	if best.PlaceMode == "" || best.Place == nil {
		t.Fatalf("hetero best %s carries no assignment", best.Label())
	}
	layers := tn.Prof.Model.Layers
	for _, c := range trace {
		if c.PlaceMode == "" {
			t.Errorf("hetero candidate %s has no placement mode", c.Label())
			continue
		}
		if !strings.HasSuffix(c.Label(), "+"+string(c.PlaceMode)) {
			t.Errorf("label %q does not advertise mode %q", c.Label(), c.PlaceMode)
		}
		if c.Place == nil {
			t.Errorf("candidate %s has mode but no assignment", c.Label())
			continue
		}
		if len(c.Place.LayersPerStage) != c.Schedule.NumStages() {
			t.Errorf("%s: %d partition entries for %d stages",
				c.Label(), len(c.Place.LayersPerStage), c.Schedule.NumStages())
		}
		total := 0
		for _, n := range c.Place.LayersPerStage {
			total += n
		}
		if total != layers {
			t.Errorf("%s: partition %v covers %d layers, want %d",
				c.Label(), c.Place.LayersPerStage, total, layers)
		}
		seen := make([]bool, len(c.Place.DeviceOf))
		for _, d := range c.Place.DeviceOf {
			if d < 0 || d >= len(seen) || seen[d] {
				t.Errorf("%s: DeviceOf %v is not a permutation", c.Label(), c.Place.DeviceOf)
				break
			}
			seen[d] = true
		}
	}
}
