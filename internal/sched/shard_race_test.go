package sched_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// TestShardedExecutorRaceHammer runs the nastiest mix the core supports —
// parallel DAG branches sharing Request state, the scaling engine growing
// and shrinking worker pools between windows, injected machine crashes and
// every probe recording — at each Shards value the engine's shard pool was
// once hammered with, and requires every run to equal the default
// configuration's byte for byte: simgpu.Config.Shards is retired, and any
// value runs the one sequential lane engine. Under -race (CI runs it on
// every push) it also runs that engine hot beside the race detector.
func TestShardedExecutorRaceHammer(t *testing.T) {
	specs := map[string]*pipeline.Spec{
		"da":     pipeline.DA(),
		"wide":   wideDAG(),
		"da-dyn": pipeline.DADynamic(0.5),
	}
	shardCounts := []int{2, 3, 5, 8}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		shardCounts = []int{3, 8}
		seeds = seeds[:1]
	}
	config := func(spec *pipeline.Spec, seed int64, shards int) simgpu.Config {
		return simgpu.Config{
			Spec:       spec,
			PolicyName: "pard",
			Trace: trace.MustGenerate(trace.Config{
				Kind:     trace.Azure,
				Duration: 6 * time.Second,
				PeakRate: 900, // overload: continuous drop pressure
				Seed:     seed,
			}),
			Seed:       seed,
			SyncPeriod: 150 * time.Millisecond,
			Shards:     shards,
			Probes: simgpu.ProbeConfig{
				QueueDelay: true, LoadFactor: true,
				Budget: true, Decomposition: true, SampleEvery: 1,
			},
			Failures: []simgpu.Failure{
				{At: 1 * time.Second, Module: 1, Count: 1},
				{At: 3 * time.Second, Module: 0, Count: 1},
			},
		}
	}
	run := func(t *testing.T, cfg simgpu.Config) []byte {
		t.Helper()
		res, err := simgpu.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, spec := range specs {
		for _, seed := range seeds {
			spec, seed := spec, seed
			base := run(t, config(spec, seed, 0))
			for _, shards := range shardCounts {
				shards := shards
				t.Run(fmt.Sprintf("%s/sh%d/seed%d", name, shards, seed), func(t *testing.T) {
					t.Parallel()
					if !bytes.Equal(run(t, config(spec, seed, shards)), base) {
						t.Fatalf("Shards: %d changed the result of the default configuration", shards)
					}
				})
			}
		}
	}
}
