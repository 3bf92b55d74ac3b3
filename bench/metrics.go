package main

// metricDef names one metric of the benchmark. BENCHMARK.json is printed from
// these tables (-contract) and bench_test.go checks the two agree; the
// README's dictionary says in prose how each is measured.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves says which end-to-end metric, on which workload, a change to
	// this layer should move (per-layer only).
	Moves string
	// Quiet names the workload on which the prediction is no change.
	Quiet string
}

// Workload names.
const (
	wDense = "sim-steady-dense"
	wGrid  = "sim-burst-grid"
	wDist  = "dist-gob-2group"
	wOpen  = "live-open-steps"
	wHTTP  = "live-http-closed"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, in two families. What the serving system delivers —
// latency, goodput, good share, useful GPU share — is read on the virtual
// clock on the sim workloads, where it repeats exactly for a seed, and on the
// wall clock on the live ones. What the host pays — requests per host second
// and allocations per op — is always real; on the three op-shaped workloads
// the host time is stated at the reference machine speed (calib.go). CPU time
// per op is printed beside the metrics but carries no bound: on the sim
// workloads it is the op's wall time again, and on the live ones it swings by
// a quarter between runs of the same code with the cost of a wake-up.
// What an "op" and a "request" are on each workload is in the workload table
// of the README. A bound is the share of the parent's median a metric may
// worsen by, and at least twice the widest spread the metric showed on any
// workload over ten seeds (README, "Steadiness").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "req_per_host_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "good_share", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "gpu_useful_share", Unit: "ratio", Better: "higher", Bound: 0.06},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.1},
}

// The tail percentile behind latency_tail_ms on the live workloads: the
// highest of p90 and p95 that repeats from run to run at the committed run
// length. A 15 s run yields about 450 requests at the open loop's light phase
// and about 7 000 on the closed loop, whose p99 (server.http_p99_ms in the
// traced pass) still swings by a sixth between runs because it is set by a
// handful of late timer wake-ups. The sim workloads report p99
// (simQuantiles).
const (
	tailOpen = 0.90
	tailHTTP = 0.95
)

// perLayer lists the traced pass's metrics. A metric reads 0 on a workload
// that does not exercise its layer; the isolated probes (direct calls into a
// package) run in every traced pass.
var perLayer = []metricDef{
	// internal/trace
	{Name: "trace.generate_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid; setup_s on sim-steady-dense", Quiet: wDist},
	{Name: "trace.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDist},

	// internal/simgpu
	{Name: "simgpu.new_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-steady-dense", Quiet: wHTTP},
	{Name: "simgpu.run_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-steady-dense", Quiet: wHTTP},
	{Name: "simgpu.events_per_op", Unit: "count", Better: "lower", Moves: "req_per_host_s on sim-steady-dense", Quiet: wHTTP},
	{Name: "simgpu.events_per_s", Unit: "1/s", Better: "higher", Moves: "req_per_host_s on sim-steady-dense", Quiet: wHTTP},
	{Name: "simgpu.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-steady-dense and sim-burst-grid", Quiet: wHTTP},

	// internal/sched
	{Name: "sched.shards2_run_ms", Unit: "ms", Better: "lower", Moves: "nothing while sequential is the default", Quiet: "all"},
	{Name: "sched.shards2_speedup", Unit: "ratio", Better: "higher", Moves: "nothing: the evidence for the -shards verdict", Quiet: "all"},
	{Name: "sched.groups2_run_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "sched.exchanges_per_op", Unit: "count", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "sched.posts_per_barrier", Unit: "count", Better: "lower", Moves: "dist.wire_bytes_tx on dist-gob-2group", Quiet: wDense},
	{Name: "sched.intents_per_barrier", Unit: "count", Better: "lower", Moves: "dist.wire_bytes_tx on dist-gob-2group", Quiet: wDense},
	{Name: "sched.empty_barrier_share", Unit: "ratio", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "sched.exchange_wait_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "sched.timer_lag_p50_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on live-http-closed", Quiet: wDense},
	{Name: "sched.timer_lag_p99_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms on live-http-closed", Quiet: wDense},

	// internal/policy
	{Name: "policy.decide_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wHTTP},
	{Name: "policy.onsync_us", Unit: "us", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wHTTP},
	{Name: "policy.drop_share", Unit: "ratio", Better: "lower", Moves: "good_share on sim-burst-grid and live-open-steps", Quiet: wHTTP},

	// internal/core
	{Name: "core.board_publish_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-burst-grid and dist-gob-2group", Quiet: wDense},
	{Name: "core.board_get_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-burst-grid and dist-gob-2group", Quiet: wDense},
	{Name: "core.estimator_refresh_us", Unit: "us", Better: "lower", Moves: "req_per_host_s on sim-burst-grid and dist-gob-2group", Quiet: wDense},
	{Name: "core.entry_estimate_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},

	// internal/depq
	{Name: "depq.push_pop_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-steady-dense", Quiet: wDist},

	// internal/stats
	{Name: "stats.convolve_quantile_us", Unit: "us", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},
	{Name: "stats.percentiles_us", Unit: "us", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},

	// internal/metrics
	{Name: "metrics.add_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDist},
	{Name: "metrics.summary_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDist},
	{Name: "metrics.finalize_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDist},
	{Name: "metrics.summary_us_per_krecord", Unit: "us", Better: "lower", Moves: "nothing: the evidence for the unbounded /stats cost", Quiet: wDist},
	{Name: "metrics.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDist},

	// internal/sweep
	{Name: "sweep.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},
	{Name: "sweep.run_ms_p50", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},
	{Name: "sweep.run_ms_max", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: wDense},
	{Name: "sweep.cold_persist_ms", Unit: "ms", Better: "lower", Moves: "nothing: the write half of the cache check", Quiet: wDense},
	{Name: "sweep.warm_hit_ms", Unit: "ms", Better: "lower", Moves: "nothing: the read half of the cache check", Quiet: wDense},
	{Name: "sweep.workers2_speedup", Unit: "ratio", Better: "higher", Moves: "nothing while the grid runs on one worker", Quiet: wDense},

	// internal/rag
	{Name: "rag.run_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on sim-burst-grid", Quiet: "all others"},
	{Name: "rag.goodput", Unit: "ratio", Better: "higher", Moves: "nothing end to end: guards the move of RAG onto internal/sched", Quiet: "all others"},

	// internal/dist
	{Name: "dist.hub_run_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.wire_bytes_tx", Unit: "B", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.wire_bytes_rx", Unit: "B", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.writes_per_op", Unit: "count", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.reads_per_op", Unit: "count", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.bytes_per_exchange", Unit: "B", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.read_wait_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.write_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.codec_self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s, allocs_per_op on dist-gob-2group", Quiet: wDense},
	{Name: "dist.allocs_per_exchange", Unit: "count", Better: "lower", Moves: "allocs_per_op on dist-gob-2group", Quiet: wDense},
	{Name: "dist.gob_over_mem", Unit: "ratio", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "net.self_ms", Unit: "ms", Better: "lower", Moves: "req_per_host_s on dist-gob-2group", Quiet: wDense},
	{Name: "dist.sweep_loopback_ms", Unit: "ms", Better: "lower", Moves: "nothing end to end: guards the session fold", Quiet: "all"},
	{Name: "dist.sweep_wire_bytes", Unit: "B", Better: "lower", Moves: "nothing end to end: guards the session fold", Quiet: "all"},

	// internal/server
	{Name: "server.submit_resolve_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on live-http-closed", Quiet: wDense},
	{Name: "server.submit_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on live-http-closed", Quiet: wDense},
	{Name: "server.summary_us", Unit: "us", Better: "lower", Moves: "nothing: the cost of one /stats call", Quiet: wDense},
	{Name: "server.heap_bytes_per_kreq", Unit: "B", Better: "lower", Moves: "nothing yet: the evidence for unbounded growth", Quiet: wDense},
	{Name: "server.cpu_us_per_req", Unit: "us", Better: "lower", Moves: "req_per_host_s on live-http-closed; the cpu_ms_per_op info line", Quiet: wDense},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on live-http-closed", Quiet: wDense},
	{Name: "server.http_p99_ms", Unit: "ms", Better: "lower", Moves: "latency_tail_ms on live-http-closed", Quiet: wDense},
	{Name: "server.open_p95_ms", Unit: "ms", Better: "lower", Moves: "latency_tail_ms on live-open-steps", Quiet: wDense},
	{Name: "server.overload_p99_ms", Unit: "ms", Better: "lower", Moves: "failed on live-open-steps", Quiet: wDense},
	{Name: "server.unresolved_overload", Unit: "count", Better: "lower", Moves: "failed, goodput_rps on live-open-steps", Quiet: wDense},
	{Name: "server.max_ok_rate_rps", Unit: "1/s", Better: "higher", Moves: "good_share on live-open-steps", Quiet: wDense},
	{Name: "server.self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on the live workloads", Quiet: wDense},

	// internal/load
	{Name: "load.hist_record_ns", Unit: "ns", Better: "lower", Moves: "req_per_host_s on live-http-closed", Quiet: "all others"},
	{Name: "load.self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on live-http-closed", Quiet: "all others"},

	// the benchmark itself: validity rows
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower", Moves: "validity: above 2000 the open-loop latencies are the generator's", Quiet: "-"},
	{Name: "bench.gen_late_max_ms", Unit: "ms", Better: "lower", Moves: "validity", Quiet: "-"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "validity: above 5 on a sim workload the layer rows overstate", Quiet: "-"},
	{Name: "bench.self_ms", Unit: "ms", Better: "lower", Moves: "validity: time inside an op that no layer span covers", Quiet: "-"},
}

// workloadDef is one named set of inputs with the reason it exists.
type workloadDef struct {
	Name string
	Why  string
	Run  func(*runCtx) error
}

var workloads = []workloadDef{
	{wDense, "one dense steady simulation with zero drops: event dispatch, batching and lane queues do the work, the drop path does none", runDense},
	{wGrid, "a 16-run burst grid plus finalization and RAG: sparse lanes, forced drops, estimator refresh, trace synthesis and metrics carry weight", runGrid},
	{wDist, "one simulation in lockstep over loopback TCP: frame codec, syscalls and rendezvous wait dominate, the engine does almost nothing", runDist},
	{wOpen, "open-loop Poisson steps at 0.5x, 0.75x and 2.5x capacity on the wall-clock server: goodput under overload, timed from the due instant", runOpen},
	{wHTTP, "closed loop over real HTTP on a 1 ms pipeline: handler, JSON, request lifecycle, timers and the load client dominate; never drops", runHTTP},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
