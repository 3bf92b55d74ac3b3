package simgpu

import (
	"fmt"
	"slices"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/trace"
)

// The cluster mechanics (scaling engine, probes, failures, offline batch
// profiling) live in the shared scheduling core; these aliases keep the
// simulator's configuration surface stable.
type (
	// ProbeConfig enables optional high-volume recordings.
	ProbeConfig = sched.ProbeConfig
	// Failure describes one injected machine failure.
	Failure = sched.Failure
	// Request is one client request traversing the pipeline.
	Request = sched.Request
)

// Config fully describes one simulation run.
type Config struct {
	Spec *pipeline.Spec
	// Lib provides the model profiles (nil: the shared profile.Default()).
	Lib *profile.Library
	// PolicyName selects the drop policy (see policy.Names(); default
	// "pard").
	PolicyName string
	Trace      *trace.Trace
	Seed       int64

	// SyncPeriod is the state-synchronization interval (default 1 s, §5.4).
	SyncPeriod time.Duration
	// NetDelay is the per-hop transfer delay between modules. Zero selects
	// the 1 ms default; a negative value requests an explicit zero delay
	// (in-process hops, e.g. the live server's simulator twin) — mirroring
	// the JitterPct sentinel.
	NetDelay time.Duration
	// JitterPct overrides per-model execution jitter when >= 0.
	JitterPct float64
	// FixedWorkers, when non-nil, pins per-module worker counts (the
	// Fig. 14a stress-test setup). It is the one scaling switch: a run
	// without it starts from sched.ProvisionWorkers' counts and runs the
	// scaling engine every sched.ScalePeriod.
	FixedWorkers []int
	// Probes selects optional recordings.
	Probes ProbeConfig
	// Failures injects worker failures (§2: "unpredictable events such as
	// workload bursts or machine failure").
	Failures []Failure
	// Lambda overrides the PARD estimator quantile when > 0 (Fig. 14c).
	Lambda float64
	// PriorityWindow overrides the priority smoothing window when > 0
	// (Fig. 14d).
	PriorityWindow time.Duration
	// Shards is retired and changes nothing: every value >= 0 runs the one
	// sequential lane engine, and a negative value is an error. It stays
	// only because the benchmark module sets it; the benchmark change of
	// ROADMAP item 3(a) deletes it.
	Shards int
	// Remote, when non-nil, runs this configuration as one lane group of a
	// multi-group simulation; every replica assembles the bit-identical
	// result (determinism invariant #4). internal/dist sets it for pard-sim
	// -hosts and pard-worker -listen; tests and the benchmark set it with
	// sched.NewMemTransports to run the groups as goroutines of one process.
	Remote *RemoteTopology
}

// RemoteTopology places one run in a multi-group lane topology.
type RemoteTopology struct {
	// Groups is the total lane-group count; Group is this run's index in
	// [0, Groups).
	Groups, Group int
	// Transport carries the lockstep exchanges: internal/dist's framed
	// binary transport over TCP, or an endpoint of sched.NewMemTransports.
	Transport sched.Transport
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Spec == nil {
		return out, fmt.Errorf("simgpu: config needs a pipeline spec")
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		return out, fmt.Errorf("simgpu: config needs a non-empty trace")
	}
	if out.SyncPeriod <= 0 {
		out.SyncPeriod = time.Second
	}
	if out.NetDelay == 0 {
		out.NetDelay = time.Millisecond
	}
	if out.NetDelay < 0 {
		out.NetDelay = 0 // explicit zero delay, mirroring JitterPct < 0
	}
	if out.JitterPct == 0 {
		out.JitterPct = 0.05
	}
	if out.JitterPct < 0 {
		out.JitterPct = 0
	}
	if !(out.JitterPct <= 1) {
		return out, fmt.Errorf("simgpu: JitterPct %v above 1 would draw negative durations", out.JitterPct)
	}
	if !(out.Lambda >= 0 && out.Lambda <= 1) {
		return out, fmt.Errorf("simgpu: Lambda %v outside [0, 1]", out.Lambda)
	}
	if a := out.Trace.Arrivals; !slices.IsSorted(a) || a[0] < 0 {
		return out, fmt.Errorf("simgpu: trace arrivals must be sorted and non-negative")
	}
	for i, f := range out.Failures {
		if f.Module < 0 || f.Module >= out.Spec.N() {
			return out, fmt.Errorf("simgpu: failure %d: module %d out of range", i, f.Module)
		}
		if f.At < 0 || f.Count < 1 {
			return out, fmt.Errorf("simgpu: failure %d: need At >= 0 and Count >= 1", i)
		}
	}
	if out.Shards < 0 {
		return out, fmt.Errorf("simgpu: negative shard count %d", out.Shards)
	}
	if out.Remote != nil {
		// At most one lane group per module.
		if rt := out.Remote; rt.Groups < 2 || rt.Groups > out.Spec.N() || rt.Group < 0 || rt.Group >= rt.Groups {
			return out, fmt.Errorf("simgpu: remote lane group %d/%d out of range for %d modules", rt.Group, rt.Groups, out.Spec.N())
		}
		if out.Remote.Transport == nil {
			return out, fmt.Errorf("simgpu: remote topology needs a transport")
		}
	}
	return out, nil
}
