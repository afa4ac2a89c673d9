package tuner

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
)

// detSpace is a grid large enough to exercise every scheme, both checkpoint
// settings, several PP/mbs combinations, OOM penalties and the upper-bound
// prune.
func detSpace(workers int) Space {
	return Space{
		Devices:      8,
		GlobalBatch:  64,
		MicroBatches: []int{1, 2, 4},
		DeviceMem:    cost.A100_40G.MemBytes,
		Workers:      workers,
	}
}

// searchRun captures everything a Search emits, rendered to comparable form.
type searchRun struct {
	best     string
	trace    []string
	progress []string
	stats    SearchStats
}

// candString renders a candidate byte-exactly: label, the raw float bits of
// the throughput, the OOM flag, the simulated makespan and per-device peaks,
// and the full schedule text.
func candString(c Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s micros=%d thpt=%016x oom=%v", c.Label(), c.Micros, math.Float64bits(c.Throughput), c.OOM)
	if c.Result != nil {
		fmt.Fprintf(&b, " total=%016x peaks=", math.Float64bits(c.Result.Total))
		for _, p := range c.Result.PeakMem {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(p))
		}
	}
	if c.Schedule != nil {
		b.WriteByte('\n')
		b.WriteString(c.Schedule.String())
	}
	return b.String()
}

func runSearch(t *testing.T, workers int) searchRun {
	t.Helper()
	tn := &Tuner{
		Prof: &profile.Profiler{
			Model:   cost.LLaMA2_3B,
			HW:      cost.A100_40G,
			Spec:    profile.DefaultMachine,
			Devices: 4,
			Iters:   4,
		},
		MaxRounds: 2,
	}
	var run searchRun
	tn.Progress = func(c Candidate, best Candidate) {
		run.progress = append(run.progress, fmt.Sprintf("%s|%016x -> %s|%016x",
			c.Label(), math.Float64bits(c.Throughput), best.Label(), math.Float64bits(best.Throughput)))
	}
	best, trace, err := tn.Search(detSpace(workers))
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	run.best = candString(*best)
	for _, c := range trace {
		run.trace = append(run.trace, candString(c))
	}
	run.stats = tn.Stats
	return run
}

// TestSearchDeterministicAcrossWorkers is the PR's core guarantee: the best
// candidate, the full trace in order, the Progress callback sequence and the
// SearchStats are identical for Workers ∈ {1, 4, GOMAXPROCS}.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	base := runSearch(t, 1)
	if base.stats.Explored == 0 {
		t.Fatal("sequential baseline explored nothing")
	}
	if base.stats.BoundPruned == 0 {
		t.Log("note: no points were bound-pruned in the baseline grid")
	}
	workerSet := []int{4, runtime.GOMAXPROCS(0)}
	for _, w := range workerSet {
		got := runSearch(t, w)
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
				t.Errorf("workers=%d: trace[%d] differs\n got: %s\nwant: %s", w, i, got.trace[i], base.trace[i])
				break
			}
		}
		if len(got.progress) != len(base.progress) {
			t.Fatalf("workers=%d: %d progress callbacks, want %d", w, len(got.progress), len(base.progress))
		}
		for i := range got.progress {
			if got.progress[i] != base.progress[i] {
				t.Errorf("workers=%d: progress[%d] = %q, want %q", w, i, got.progress[i], base.progress[i])
				break
			}
		}
	}
}

// TestSearchPruneEquivalence: pruning must never change the winner, only the
// amount of work — the bound is admissible, so the best candidate and the
// improvement path are those of the exhaustive search.
func TestSearchPruneEquivalence(t *testing.T) {
	mk := func() *Tuner { return newTuner() }
	sp := detSpace(1)
	pruned := mk()
	bestP, traceP, err := pruned.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.NoPrune = true
	full := mk()
	bestF, traceF, err := full.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bestP) != candString(*bestF) {
		t.Errorf("prune changed the winner:\n got: %s\nwant: %s", candString(*bestP), candString(*bestF))
	}
	if full.Stats.BoundPruned != 0 {
		t.Errorf("NoPrune search still bound-pruned %d points", full.Stats.BoundPruned)
	}
	if pruned.Stats.Explored+pruned.Stats.BoundPruned != full.Stats.Explored {
		t.Errorf("explored(%d)+boundPruned(%d) != exhaustive explored(%d)",
			pruned.Stats.Explored, pruned.Stats.BoundPruned, full.Stats.Explored)
	}
	if len(traceP) > len(traceF) {
		t.Errorf("pruned trace (%d) longer than exhaustive trace (%d)", len(traceP), len(traceF))
	}
	// The pruned trace is a subsequence of the exhaustive one.
	j := 0
	for _, c := range traceP {
		s := candString(c)
		for j < len(traceF) && candString(traceF[j]) != s {
			j++
		}
		if j == len(traceF) {
			t.Fatalf("pruned-trace candidate %s not found in exhaustive trace order", c.Label())
		}
		j++
	}
}

// TestStatsSnapshotRaceSafe reads the search counters from another goroutine
// while a parallel Search is running; under -race this is the regression
// test for the PR-1 Progress/Stats data race.
func TestStatsSnapshotRaceSafe(t *testing.T) {
	tn := newTuner()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var polls int
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s := tn.StatsSnapshot()
				if s.Explored < 0 {
					t.Error("impossible snapshot")
					return
				}
				polls++
			}
		}
	}()
	if _, _, err := tn.Search(detSpace(4)); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if polls == 0 {
		t.Error("snapshot goroutine never ran")
	}
	final := tn.StatsSnapshot()
	if final != tn.Stats {
		t.Errorf("snapshot %+v differs from settled Stats %+v", final, tn.Stats)
	}
}

// TestCacheSharing: the schedule-build cache is shared between the
// checkpointed and plain variants of a grid point and across Search calls,
// and cache contents never leak between unrelated keys.
func TestCacheSharing(t *testing.T) {
	tn := newTuner()
	sp := Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{2},
		MinPP:        8,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		DeviceMem:    cost.A100_40G.MemBytes,
		Workers:      1,
		NoPrune:      true,
	}
	if _, _, err := tn.Search(sp); err != nil {
		t.Fatal(err)
	}
	hits, misses := tn.CacheStats()
	// ckpt ∈ {false, true} share one build: 1 miss + 1 hit on the build
	// cache, 1 miss on the graph cache.
	if hits < 1 || misses < 1 {
		t.Errorf("expected build-cache sharing, got hits=%d misses=%d", hits, misses)
	}
	// A second identical search is served from both caches.
	_, missesBefore := tn.CacheStats()
	if _, _, err := tn.Search(sp); err != nil {
		t.Fatal(err)
	}
	_, missesAfter := tn.CacheStats()
	if missesAfter != missesBefore {
		t.Errorf("repeat search recomputed %d cached entries", missesAfter-missesBefore)
	}
}
