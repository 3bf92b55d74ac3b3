package simgpu

import (
	"testing"
	"time"

	"pard/internal/pipeline"
)

// TestAllocsRun: a simulation's allocations do not grow with its length, as
// internal/rag's TestAllocsRun holds for the RAG loop. The request slab, the
// lane queues and the collector are sized from the trace up front, batch and
// reservoir slabs are sized once, and a sync tick publishes into storage the
// board already owns, so a run four times as long makes the same allocations
// to within a constant: the windows' growth toward their steady size.
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
	if long-short >= 64 {
		t.Errorf("%.0f allocations at 30 s, %.0f at 120 s: want under 64 apart", short, long)
	}
}
