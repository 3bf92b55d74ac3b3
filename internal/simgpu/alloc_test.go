package simgpu

import (
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
)

// TestAllocsRun: a simulation's allocations do not grow with its length, as
// internal/rag's TestAllocsRun holds for the RAG loop. The request slab, the
// lane queues, the collector, every module's State Planner windows and the
// priority controllers' windows are sized from the trace and its tick count
// up front, batch slabs, batch-wait rings and the board's sample slots are
// sized once, and a sync tick publishes into storage the board already owns,
// so a run four times as long makes the same allocations to within a few
// (they read equal, or the longer run up to 2 fewer). A per-module window
// that grows with the run — one doubling on each of LV's five modules —
// fails it.
func TestAllocsRun(t *testing.T) {
	allocs := func(d time.Duration) float64 {
		cfg := Config{Spec: pipeline.LV(), PolicyName: "pard", Trace: steadyTrace(200, d, 1), Seed: 1}
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(30*time.Second), allocs(120*time.Second)
	t.Logf("%.0f allocations at 30 s, %.0f at 120 s", short, long)
	if long-short > 4 {
		t.Errorf("%.0f allocations at 30 s, %.0f at 120 s: want at most 4 more", short, long)
	}
}

// TestAllocsDerivedOnce: New derives a deployment once — one plan validates
// the spec, resolves the library and sizes the target batches — and a
// process builds the default library once. A run that names no library
// allocates exactly what one handed the shared default does, and a scaled
// run allocates more than a fixed-worker run only by what provisioning itself
// costs: ProvisionWorkers' counts (the trace's warm-up rate is counted in
// place). A second TargetBatches on the scaled path, or a default library
// built per run, fails it, and so does a second validation of the spec: a
// fixed-worker build stays under newCeiling and a scaled one under
// scaledCeiling, the counts measured when they were set.
func TestAllocsDerivedOnce(t *testing.T) {
	const newCeiling, scaledCeiling = 57, 58
	spec, tr := pipeline.DA(), steadyTrace(200, 20*time.Second, 1)
	// fewest is the fewest allocations of three tries: under -race the
	// runtime now and then adds one of its own.
	fewest := func(f func()) float64 {
		return min(testing.AllocsPerRun(3, f), testing.AllocsPerRun(3, f), testing.AllocsPerRun(3, f))
	}
	build := func(cfg Config) float64 {
		return fewest(func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	fixed := Config{Spec: spec, Trace: tr, Seed: 1, FixedWorkers: []int{2, 2, 2, 2, 2}}
	shared := fixed
	shared.Lib = profile.Default()
	scaled := fixed
	scaled.FixedWorkers = nil
	plan, err := sched.NewPlan(spec, nil, fixed.FixedWorkers, 0)
	if err != nil {
		t.Fatal(err)
	}
	provision := fewest(func() {
		if _, err := sched.ProvisionWorkers(spec, plan.Lib, plan.Batches, tr.RateIn(0, 10*time.Second)); err != nil {
			t.Fatal(err)
		}
	})
	nilLib, explicit, scaledN := build(fixed), build(shared), build(scaled)
	t.Logf("New on DA: %.0f allocations with no library, %.0f with the shared one, %.0f scaled (provisioning %.0f)", nilLib, explicit, scaledN, provision)
	if nilLib > newCeiling {
		t.Errorf("New on DA with fixed workers allocates %.0f times, ceiling %d", nilLib, newCeiling)
	}
	if nilLib != explicit {
		t.Errorf("New allocates %.0f times with no library, %.0f with the shared default", nilLib, explicit)
	}
	if scaledN > scaledCeiling {
		t.Errorf("a scaled New on DA allocates %.0f times, ceiling %d", scaledN, scaledCeiling)
	}
	if scaledN != nilLib+provision {
		t.Errorf("a scaled New allocates %.0f times, a fixed-worker one %.0f plus provisioning's %.0f", scaledN, nilLib, provision)
	}
}
