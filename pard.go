// Package pard is a Go reproduction of PARD ("PARD: Enhancing Goodput for
// Inference Pipeline via ProActive Request Dropping", EuroSys '26): a DNN
// inference-pipeline serving system that proactively drops requests using
// bi-directional runtime information and adaptive request priority, plus the
// full serving substrate and evaluation harness the paper builds on.
//
// The package is a facade over the implementation packages:
//
//   - Pipelines: the paper's four applications (TM, LV, GM, DA) or custom
//     chains/DAGs defined in code or JSON (§5.1 config format).
//   - Model profiles: offline-profiled latency curves d(b) = α + β·b.
//   - Traces: synthetic wiki/tweet/azure workloads or CSV replays.
//   - Policies: PARD, the paper's baselines (Nexus, Clipper++, Naive) and
//     every Table 1 ablation.
//   - Simulate: a deterministic discrete-event GPU-cluster simulation
//     returning goodput / drop-rate / invalid-rate metrics and probes.
//   - Experiments: regenerate every table and figure of the evaluation.
//
// Quickstart:
//
//	tr := pard.GenerateTrace(pard.TraceConfig{Kind: pard.Tweet, Duration: 5 * time.Minute, Seed: 1})
//	res, err := pard.Simulate(pard.SimConfig{Spec: pard.LV(), PolicyName: "pard", Trace: tr, Seed: 1})
//	fmt.Println(res.Summary.Goodput, res.Summary.DropRate)
package pard

import (
	"io"
	"time"

	"pard/internal/experiments"
	"pard/internal/load"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/rag"
	"pard/internal/server"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// Pipeline definitions (§5.1).
type (
	// Pipeline is a validated module DAG with an end-to-end latency SLO.
	Pipeline = pipeline.Spec
	// Module is one pipeline stage (name, id, pres, subs).
	Module = pipeline.Module
)

// TM returns the 3-module traffic-monitoring pipeline (400 ms SLO).
func TM() *Pipeline { return pipeline.TM() }

// LV returns the 5-module live-video pipeline (500 ms SLO).
func LV() *Pipeline { return pipeline.LV() }

// GM returns the 5-module game-analysis pipeline (600 ms SLO).
func GM() *Pipeline { return pipeline.GM() }

// DA returns the DAG-style live-video pipeline (420 ms SLO).
func DA() *Pipeline { return pipeline.DA() }

// Apps returns the paper's four applications keyed by name (tm, lv, gm,
// da) — the single registry the commands and examples resolve names from.
func Apps() map[string]*Pipeline { return pipeline.Apps() }

// DADynamic returns DA with request-specific dynamic branch selection
// (§5.2): each request takes the pose branch with probability poseProb.
func DADynamic(poseProb float64) *Pipeline { return pipeline.DADynamic(poseProb) }

// Chain builds an n-module linear pipeline running one model per stage.
func Chain(app string, slo time.Duration, n int, model string) *Pipeline {
	return pipeline.Uniform(app, n, model, slo)
}

// ParsePipeline reads a JSON pipeline definition (the paper's
// name/id/pres/subs format plus the SLO) and validates it.
func ParsePipeline(r io.Reader) (*Pipeline, error) { return pipeline.Parse(r) }

// Model profiling (offline profiling pass, §5.1).
type (
	// ModelProfile is a profiled latency curve d(b) = α + β·b.
	ModelProfile = profile.Model
	// ModelLibrary is a named collection of model profiles.
	ModelLibrary = profile.Library
)

// DefaultLibrary returns profiles for all models the paper's applications
// use, calibrated for the simulator (see DESIGN.md substitutions).
func DefaultLibrary() *ModelLibrary { return profile.DefaultLibrary() }

// LoadLibrary parses a profile library from JSON.
func LoadLibrary(r io.Reader) (*ModelLibrary, error) { return profile.Load(r) }

// LoadLibraryScaled returns a copy of lib with every model's latency curve
// scaled by factor (useful for fast live demos).
func LoadLibraryScaled(lib *ModelLibrary, factor float64) (*ModelLibrary, error) {
	return lib.Scaled(factor)
}

// Workload traces.
type (
	// Trace is a concrete request-arrival sequence.
	Trace = trace.Trace
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = trace.Config
	// TraceKind names a built-in workload shape.
	TraceKind = trace.Kind
)

// Built-in workload shapes matching the paper's three traces plus synthetic
// helpers.
const (
	Wiki   = trace.Wiki
	Tweet  = trace.Tweet
	Azure  = trace.Azure
	Steady = trace.Steady
	Step   = trace.Step
)

// GenerateTrace synthesizes an arrival trace; it panics on invalid configs
// (ResolveTrace returns them as errors).
func GenerateTrace(c TraceConfig) *Trace { return trace.MustGenerate(c) }

// ReadTraceCSV replays a real trace from newline-separated arrival offsets
// in seconds, as Trace.WriteCSV writes them.
func ReadTraceCSV(name string, r io.Reader) (*Trace, error) { return trace.ReadCSV(name, r) }

// ResolveTrace returns the trace a command-line argument names: a built-in
// kind generated over duration at peak rate (0 = the kind's nominal peak),
// "fixed" (one arrival every 1/rate seconds), or else a trace CSV file.
func ResolveTrace(arg string, duration time.Duration, rate float64, seed int64) (*Trace, error) {
	return trace.Resolve(arg, duration, rate, seed)
}

// Policies and simulation.
type (
	// SimConfig fully describes one simulation run.
	SimConfig = simgpu.Config
	// SimResult is everything a run produces (metrics plus probes).
	SimResult = simgpu.Result
	// ProbeConfig selects optional high-volume recordings.
	ProbeConfig = simgpu.ProbeConfig
	// Summary is the run-level metric aggregate.
	Summary = metrics.Summary
	// MetricsCollector counts outcomes per 250 ms of send time and keeps a
	// latency histogram, from which it derives windowed goodput/drop series
	// and latency quantiles (SimResult.Collector).
	MetricsCollector = metrics.Collector
)

// Policies lists every registered dropping policy: "pard", the baselines
// ("nexus", "clipper++", "naive") and the Table 1 ablations.
func Policies() []string { return policy.Names() }

// ComparisonPolicies lists the headline four-system comparison.
func ComparisonPolicies() []string { return policy.Comparison() }

// AblationPolicies lists PARD plus the Table 1 ablation variants.
func AblationPolicies() []string { return policy.Ablations() }

// Simulate runs one configuration on the discrete-event cluster simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return simgpu.Run(cfg) }

// Experiments (the paper's tables and figures).
type (
	// Experiment is one registered paper artifact.
	Experiment = experiments.Experiment
	// ExperimentConfig selects scale and seed.
	ExperimentConfig = experiments.Config
	// ExperimentOutput is the rendered tables of one artifact.
	ExperimentOutput = experiments.Output
	// ExperimentTable is one rendered table/series.
	ExperimentTable = experiments.Table
	// ExperimentHarness caches simulation runs across experiments.
	ExperimentHarness = experiments.Harness
)

// Experiment scales.
const (
	ScaleSmoke = experiments.Smoke
	ScaleQuick = experiments.Quick
	ScaleFull  = experiments.Full
)

// Parallel sweeps (deterministic fan-out of independent simulations).
type (
	// SweepEngine executes grids of runs on a bounded worker pool with a
	// single-flight cache; results are identical for any worker count.
	SweepEngine = sweep.Engine
	// SweepConfig sets workers, base seed and trace duration.
	SweepConfig = sweep.Config
	// SweepSpec is one grid point (app, trace kind, policy, options).
	SweepSpec = sweep.Spec
	// SweepRunOpts tweaks one run beyond app/trace/policy.
	SweepRunOpts = sweep.RunOpts
	// SweepProgress reports one finished run to progress callbacks.
	SweepProgress = sweep.Progress
)

// NewSweepEngine builds a parallel sweep engine.
func NewSweepEngine(cfg SweepConfig) *SweepEngine { return sweep.New(cfg) }

// DeriveSeed maps a base seed and a stable key to a distinct per-artifact
// seed (pure; independent of execution order).
func DeriveSeed(base int64, key string) int64 { return sweep.DeriveSeed(base, key) }

// Experiments lists every registered paper artifact.
func Experiments() []Experiment { return experiments.All() }

// NewExperimentHarness builds a harness that caches runs across experiments.
func NewExperimentHarness(cfg ExperimentConfig) *ExperimentHarness {
	return experiments.NewHarness(cfg)
}

// RunExperiment regenerates one paper artifact by ID (e.g. "fig8").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentOutput, error) {
	e, err := experiments.Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.NewHarness(cfg))
}

// Live serving (wall-clock runtime with an HTTP data plane). The server is
// a thin shell over the same scheduling core the simulator runs, so it
// serves chains and DAGs alike with identical drop/priority decisions.
type (
	// ServerConfig describes a live serving deployment. Its MaxInFlight
	// bounds the requests outstanding at once: an arrival over the bound is
	// answered HTTP 429 + Retry-After: 1 before entering the pipeline.
	ServerConfig = server.Config
	// Server hosts one pipeline — chain or DAG — on the wall clock.
	Server = server.Server
	// ServerResponse is the JSON reply of POST /infer.
	ServerResponse = server.Response
)

// NewServer builds (but does not start) a live pipeline server for any
// validated pipeline spec.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Load generation (wall-clock HTTP load against a live server, with a
// matched-load simulator twin).
type (
	// LoadConfig describes one load-generation run against POST /infer.
	LoadConfig = load.Config
	// LoadReport is the aggregate outcome (goodput, outcome split, HDR-style
	// latency quantiles, optional sim comparison).
	LoadReport = load.Report
	// LoadThinkTime is the closed-loop pause between reply and next request.
	LoadThinkTime = load.ThinkTime
)

// Load-generation modes.
const (
	// LoadModeOpen replays a trace's arrival schedule regardless of
	// completions (the paper's workload model).
	LoadModeOpen = load.ModeOpen
	// LoadModeClosed runs workers that wait for each reply plus a think time.
	LoadModeClosed = load.ModeClosed
)

// RunLoad executes one load-generation run, blocking until every request
// resolves.
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return load.Run(cfg) }

// RAG case study (§7).
type (
	// RAGConfig parameterizes the retrieval-augmented-generation workflow.
	RAGConfig = rag.Config
	// RAGResult summarizes one RAG run.
	RAGResult = rag.Result
	// RAGPolicy selects the RAG dropping policy.
	RAGPolicy = rag.PolicyKind
)

// RAG dropping policies.
const (
	RAGReactive  = rag.Reactive
	RAGProactive = rag.Proactive
	RAGPredict   = rag.Predict
)

// DefaultRAGConfig returns the Table 2 setup scaled for simulation.
func DefaultRAGConfig(p RAGPolicy) RAGConfig { return rag.DefaultConfig(p) }

// RunRAG executes the RAG workflow simulation.
func RunRAG(cfg RAGConfig) (*RAGResult, error) { return rag.Run(cfg) }
