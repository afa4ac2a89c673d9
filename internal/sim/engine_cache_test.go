package sim

import (
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// editDevice returns a copy-on-write clone of parent with the n-th adjacent
// compute pair of device d swapped — the graph tuner's candidate shape, and a
// distinct identity per (d, n).
func editDevice(t *testing.T, parent *pipeline.Schedule, d, n int) *pipeline.Schedule {
	t.Helper()
	c := parent.Clone()
	list := c.MutableList(d)
	seen := 0
	for i := 0; i+1 < len(list); i++ {
		if list[i].Kind.IsCompute() && list[i+1].Kind.IsCompute() {
			if seen == n {
				list[i], list[i+1] = list[i+1], list[i]
				return c
			}
			seen++
		}
	}
	t.Fatalf("device %d has fewer than %d adjacent compute pairs", d, n+1)
	return nil
}

// reverseList scrambles a buffer in place, standing in for a pool handing the
// recycled memory to an unrelated user.
func reverseList(l []pipeline.Instr) {
	for i, j := 0, len(l)-1; i < j; i, j = i+1, j-1 {
		l[i], l[j] = l[j], l[i]
	}
}

// TestHoldsCoversDeltaState pins the identity matrix Holds must report: the
// active metadata entry and the depth-2 revert snapshot — every buffer the
// engine may later read by value — and nothing the cache has let go of. A
// recycling pool consults Holds before reusing a buffer, so a missing entry
// here is an aliasing hole and a spurious one leaks the buffer.
func TestHoldsCoversDeltaState(t *testing.T) {
	parent := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	opt := Options{NoTimeline: true}
	eng := &Simulator{}

	assertSameOutcome(t, "parent", eng, parent, e, opt)
	pl := parent.Lists[0]
	if !eng.Holds(0, pl) {
		t.Fatal("active list not held after the first run")
	}

	child := editDevice(t, parent, 0, 0)
	assertSameOutcome(t, "child", eng, child, e, opt)
	chl := child.Lists[0]
	if !eng.Holds(0, chl) {
		t.Error("candidate list (active entry) not held")
	}
	if !eng.Holds(0, pl) {
		t.Error("parent list (depth-2 snapshot) not held")
	}

	// A second, different edit retires the first candidate into the depth-2
	// slot and pushes the parent list out of the cache.
	child2 := editDevice(t, parent, 0, 1)
	assertSameOutcome(t, "child2", eng, child2, e, opt)
	if !eng.Holds(0, chl) {
		t.Error("retired candidate (depth-2 snapshot) not held")
	}
	if eng.Holds(0, pl) {
		t.Error("list pushed out of the depth-2 cache still reported held")
	}

	// Negative space: wrong device, unrelated list, empty list.
	if eng.Holds(1, chl) {
		t.Error("device 0's list reported held on device 1")
	}
	if eng.Holds(0, parent.Lists[1]) {
		t.Error("device 1's list reported held on device 0")
	}
	if eng.Holds(0, nil) {
		t.Error("nil list reported held")
	}
}

// TestForgetRecycledBufferSafety drives the pool-recycling protocol through
// the metadata caches: after Forget releases a retired candidate buffer,
// overwriting it in place must not perturb any simulation — neither of the
// current schedule nor of a new schedule reusing the buffer's identity.
func TestForgetRecycledBufferSafety(t *testing.T) {
	parent := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	opt := Options{NoTimeline: true}
	eng := &Simulator{}

	assertSameOutcome(t, "parent", eng, parent, e, opt)
	child := editDevice(t, parent, 0, 0)
	assertSameOutcome(t, "child", eng, child, e, opt)
	// Reverting to the parent exercises the depth-2 swap restore and leaves
	// the candidate list only in the revert snapshot.
	assertSameOutcome(t, "parent-again", eng, parent, e, opt)

	chl := child.Lists[0]
	if !eng.Holds(0, chl) {
		t.Fatal("retired candidate list not held before Forget")
	}
	eng.Forget(0, chl)
	if eng.Holds(0, chl) {
		t.Fatal("candidate list still held after Forget")
	}

	// The pool hands the buffer to an unrelated user.
	reverseList(chl)

	// The engine must neither read the poisoned buffer when re-simulating the
	// current schedule, nor confuse the new content with the old identity.
	assertSameOutcome(t, "parent-after-poison", eng, parent, e, opt)
	assertSameOutcome(t, "poisoned-content", eng, child, e, opt)
	assertSameOutcome(t, "parent-recovered", eng, parent, e, opt)
}

// TestDetachReleasesCallerBuffers covers the engine-pooling hand-off: Detach
// re-keys the active entries onto engine-owned copies and drops the revert
// snapshot, so the engine holds none of the caller's buffers and stays
// bit-exact after the caller reclaims and overwrites all of them.
func TestDetachReleasesCallerBuffers(t *testing.T) {
	parent := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	opt := Options{NoTimeline: true}
	eng := &Simulator{}

	assertSameOutcome(t, "parent", eng, parent, e, opt)
	child := editDevice(t, parent, 0, 0)
	assertSameOutcome(t, "child", eng, child, e, opt)

	eng.Detach()
	for d := range parent.Lists {
		if eng.Holds(d, parent.Lists[d]) {
			t.Errorf("device %d: caller buffer still held after Detach", d)
		}
	}
	if eng.Holds(0, child.Lists[0]) {
		t.Error("detached active list still held under the caller's identity")
	}

	// The caller reclaims everything the engine released.
	for d := range parent.Lists {
		reverseList(parent.Lists[d])
	}
	reverseList(child.Lists[0])

	// A fresh build of the same starting content (the tuner's next run over
	// the same grid point) must simulate bit-identically.
	fresh := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	assertSameOutcome(t, "fresh-after-detach", eng, fresh, e, opt)
	assertSameOutcome(t, "fresh-again", eng, fresh, e, opt)
}
