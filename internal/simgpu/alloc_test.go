package simgpu

import (
	"testing"
	"time"

	"pard/internal/pipeline"
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
