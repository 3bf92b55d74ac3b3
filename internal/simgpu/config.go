package simgpu

import (
	"fmt"
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
	// ScalingConfig controls the per-module resource scaling engine.
	ScalingConfig = sched.ScalingConfig
	// ProbeConfig enables optional high-volume recordings.
	ProbeConfig = sched.ProbeConfig
	// Failure describes one injected machine failure.
	Failure = sched.Failure
	// Request is one client request traversing the pipeline.
	Request = sched.Request
)

// DefaultScaling returns the scaling configuration used by the experiments.
func DefaultScaling() ScalingConfig { return sched.DefaultScaling() }

// Config fully describes one simulation run.
type Config struct {
	Spec *pipeline.Spec
	Lib  *profile.Library
	// PolicyName selects the drop policy (see policy.Names()).
	PolicyName string
	Trace      *trace.Trace
	Seed       int64

	// BatchFrac sets the SLO share available for one pass of pure execution
	// when choosing target batch sizes: the per-module execution budget is
	// SLO·BatchFrac·d₁(k)/Σd₁. Default 0.5 (the paper-like regime where one execution pass consumes half the SLO).
	BatchFrac float64
	// SyncPeriod is the state-synchronization interval (default 1 s, §5.4).
	SyncPeriod time.Duration
	// QueueWindow is the sliding window for recent queueing delay
	// (default 5 s, §4.2 footnote 4).
	QueueWindow time.Duration
	// WaitReservoir is the per-module batch-wait sample reservoir size.
	WaitReservoir int
	// NetDelay is the per-hop transfer delay between modules. Zero selects
	// the 1 ms default; a negative value requests an explicit zero delay
	// (in-process hops, e.g. the live server's simulator twin) — mirroring
	// the JitterPct sentinel.
	NetDelay time.Duration
	// JitterPct overrides per-model execution jitter when >= 0.
	JitterPct float64
	// Scaling configures the resource scaling engine.
	Scaling ScalingConfig
	// FixedWorkers, when non-nil, pins per-module worker counts and
	// disables scaling (stress tests).
	FixedWorkers []int
	// Probes selects optional recordings.
	Probes ProbeConfig
	// Failures injects worker failures (§2: "unpredictable events such as
	// workload bursts or machine failure").
	Failures []Failure
	// Lambda overrides the PARD estimator quantile when > 0 (Fig. 14c).
	Lambda float64
	// EstimatorSamples overrides the Monte-Carlo sample count when > 0.
	EstimatorSamples int
	// PriorityWindow overrides the priority smoothing window when > 0
	// (Fig. 14d).
	PriorityWindow time.Duration
	// Shards is the lane engine's worker count: the run's per-module event
	// lanes, advanced under a low-watermark barrier with cross-module events
	// exchanged through deterministic ordered mailboxes, are drained by that
	// many concurrent workers. 0 (the default) and 1 both run the lanes
	// sequentially, which on the 2-core hosts measured was never slower than
	// a shard pool; no command sets it. Results are identical for every shard
	// count (Shards <= 1 is the sequential baseline of the differential
	// harness).
	Shards int
	// Groups splits the lane engine's per-module lanes into N lane groups,
	// each running a full cluster replica in lockstep over an in-process
	// transport (module k belongs to group k % Groups). Results are
	// bit-identical for every group count — determinism invariant #5 — and
	// 0 and 1 both mean the ungrouped fast path. The cross-host form of the
	// same topology is configured via Remote.
	Groups int
	// Remote, when non-nil, runs THIS process as one lane group of a
	// cross-host simulation over the given transport (set by the
	// internal/dist glue — cmd/pard-sim -hosts on the hub, cmd/pard-worker
	// -listen on each spoke — not by users). Mutually exclusive with Groups.
	Remote *RemoteTopology
}

// RemoteTopology places this process in a cross-host lane-group topology.
type RemoteTopology struct {
	// Groups is the total lane-group (process) count; Group is this
	// process's index in [0, Groups).
	Groups, Group int
	// Transport carries the lockstep exchanges, typically internal/dist's
	// framed binary transport over TCP.
	Transport sched.Transport
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Spec == nil {
		return out, fmt.Errorf("simgpu: config needs a pipeline spec")
	}
	if err := out.Spec.Validate(); err != nil {
		return out, err
	}
	if out.Lib == nil {
		out.Lib = profile.DefaultLibrary()
	}
	if out.PolicyName == "" {
		out.PolicyName = "pard"
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		return out, fmt.Errorf("simgpu: config needs a non-empty trace")
	}
	if out.BatchFrac <= 0 {
		out.BatchFrac = 0.5
	}
	if out.SyncPeriod <= 0 {
		out.SyncPeriod = time.Second
	}
	if out.QueueWindow <= 0 {
		out.QueueWindow = 5 * time.Second
	}
	if out.WaitReservoir <= 0 {
		out.WaitReservoir = 512
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
	if out.Scaling == (ScalingConfig{}) {
		out.Scaling = DefaultScaling()
	}
	if out.Probes.SampleEvery <= 0 {
		out.Probes.SampleEvery = 1
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
	if out.Groups < 0 {
		return out, fmt.Errorf("simgpu: negative lane-group count %d", out.Groups)
	}
	if out.Remote != nil {
		if out.Groups > 1 {
			return out, fmt.Errorf("simgpu: Groups and Remote are mutually exclusive")
		}
		if out.Remote.Groups < 2 || out.Remote.Group < 0 || out.Remote.Group >= out.Remote.Groups {
			return out, fmt.Errorf("simgpu: remote lane group %d/%d out of range", out.Remote.Group, out.Remote.Groups)
		}
		if out.Remote.Transport == nil {
			return out, fmt.Errorf("simgpu: remote topology needs a transport")
		}
	}
	// A group per module is the finest useful split; clamping keeps the
	// owner mapping (k % Groups) total. Normalized identically on every
	// host, so shipping the raw config cross-host is safe.
	if out.Groups > out.Spec.N() {
		out.Groups = out.Spec.N()
	}
	if out.Shards == 0 {
		out.Shards = 1 // sequential
	}
	if out.FixedWorkers != nil {
		if len(out.FixedWorkers) != out.Spec.N() {
			return out, fmt.Errorf("simgpu: %d fixed worker counts for %d modules",
				len(out.FixedWorkers), out.Spec.N())
		}
		out.Scaling.Enabled = false
	}
	return out, nil
}
