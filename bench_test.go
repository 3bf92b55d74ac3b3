// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkFigXX runs the corresponding experiment (at smoke scale so
// `go test -bench=.` stays tractable; use cmd/pard-bench -scale full for
// paper-length traces) and reports the artifact's headline scalar as a
// custom metric. Run with -v to see the rendered tables.
package pard_test

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pard"
	"pard/internal/core"
	"pard/internal/depq"
	"pard/internal/dist"
	"pard/internal/load"
	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
	"pard/internal/rag"
	"pard/internal/sched"
	"pard/internal/server"
	"pard/internal/simgpu"
	"pard/internal/stats"

	"math/rand"
)

// engine returns a shared smoke-scale sweep engine so benches reuse cached
// simulation runs (Figs. 8-10 share all 48 workload×policy runs).
var engine = sync.OnceValue(func() *pard.SweepEngine {
	return pard.NewSweepEngine(pard.SweepConfig{BaseSeed: 1, TraceDuration: pard.ScaleSmoke})
})

// runExperiment executes one artifact on the shared engine and logs its
// tables.
func runExperiment(b *testing.B, id string) *pard.ExperimentOutput {
	b.Helper()
	var exp pard.Experiment
	found := false
	for _, e := range pard.Experiments() {
		if e.ID == id {
			exp, found = e, true
			break
		}
	}
	if !found {
		b.Fatalf("experiment %s not registered", id)
	}
	var out *pard.ExperimentOutput
	for i := 0; i < b.N; i++ {
		var err error
		out, err = exp.Run(engine())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range out.Tables {
		b.Log("\n" + t.Render())
	}
	return out
}

// number reads the number a table cell shows (a pct cell reads its
// percent), failing on a label.
func number(b *testing.B, c pard.ExperimentCell) float64 {
	b.Helper()
	v, ok := c.Number()
	if !ok {
		b.Fatalf("cell %q is not a number", c)
	}
	return v
}

func BenchmarkFig2aMinGoodput(b *testing.B) {
	out := runExperiment(b, "fig2a")
	// columns: window, pard, nexus, clipper++, naive
	b.ReportMetric(number(b, out.Tables[0].Rows[0][1]), "pard-min-goodput")
	b.ReportMetric(number(b, out.Tables[0].Rows[0][4]), "naive-min-goodput")
}

func BenchmarkFig2bDropRate(b *testing.B) {
	out := runExperiment(b, "fig2b")
	b.ReportMetric(number(b, out.Tables[0].Rows[0][1]), "pard-drop-pct")
}

func BenchmarkFig2cDropsPerModule(b *testing.B) {
	out := runExperiment(b, "fig2c")
	// last-module drop share of lv-tweet under the reactive policy
	rows := out.Tables[0].Rows
	b.ReportMetric(number(b, rows[len(rows)-1][1]), "reactive-lastmod-pct")
}

func BenchmarkFig2dTransientDropRate(b *testing.B) {
	out := runExperiment(b, "fig2d")
	max := 0.0
	for _, row := range out.Tables[0].Rows {
		if v := number(b, row[1]); v > max {
			max = v
		}
	}
	b.ReportMetric(max, "max-transient-drop-pct")
}

func BenchmarkFig6BatchWaitPDF(b *testing.B) {
	out := runExperiment(b, "fig6")
	// q10 of the full M1..M4 aggregation (paper: 0.31).
	b.ReportMetric(number(b, out.Tables[0].Rows[0][1]), "q10-frac")
}

func BenchmarkFig8DropInvalid(b *testing.B) {
	out := runExperiment(b, "fig8")
	var pardSum, nexusSum float64
	for _, row := range out.Tables[0].Rows {
		pardSum += number(b, row[1])
		nexusSum += number(b, row[2])
	}
	n := float64(len(out.Tables[0].Rows))
	b.ReportMetric(pardSum/n, "pard-avg-drop-pct")
	b.ReportMetric(nexusSum/n, "nexus-avg-drop-pct")
}

func BenchmarkFig9MaxDropWindows(b *testing.B) {
	out := runExperiment(b, "fig9")
	b.ReportMetric(float64(len(out.Tables)), "panels")
}

func BenchmarkFig10GoodputTimeline(b *testing.B) {
	out := runExperiment(b, "fig10")
	b.ReportMetric(float64(len(out.Tables)), "panels")
}

func BenchmarkFig11Ablation(b *testing.B) {
	out := runExperiment(b, "fig11")
	for _, row := range out.Tables[0].Rows {
		if row[0].String() == "pard" {
			b.ReportMetric(number(b, row[1]), "pard-drop-pct")
		}
	}
}

func BenchmarkFig12aConsumedBudget(b *testing.B) {
	out := runExperiment(b, "fig12a")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "time-buckets")
}

func BenchmarkFig12bLatencyCDF(b *testing.B) {
	out := runExperiment(b, "fig12b")
	// median ΣW (ms): the uncertain quantity PARD estimates.
	for _, row := range out.Tables[0].Rows {
		if row[0].String() == "p50" {
			b.ReportMetric(number(b, row[2]), "median-sumW-ms")
		}
	}
}

func BenchmarkFig12cQueueingBurst(b *testing.B) {
	out := runExperiment(b, "fig12c")
	b.ReportMetric(float64(len(out.Tables)), "policies")
}

func BenchmarkFig12dRemainingBudget(b *testing.B) {
	out := runExperiment(b, "fig12d")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "requests")
}

func BenchmarkFig13LoadFactor(b *testing.B) {
	out := runExperiment(b, "fig13")
	for _, t := range out.Tables {
		if t.ID != "fig13-switches" {
			continue
		}
		for _, row := range t.Rows {
			if row[0].String() == "pard" {
				b.ReportMetric(number(b, row[1]), "pard-switches")
			}
			if row[0].String() == "pard-instant" {
				b.ReportMetric(number(b, row[1]), "instant-switches")
			}
		}
	}
}

func BenchmarkFig14aStress(b *testing.B) {
	out := runExperiment(b, "fig14a")
	last := out.Tables[0].Rows[len(out.Tables[0].Rows)-1]
	b.ReportMetric(number(b, last[1]), "pard-goodput-at-max-rate")
	b.ReportMetric(number(b, last[4]), "naive-goodput-at-max-rate")
}

func BenchmarkFig14bSLOSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14b")
	b.ReportMetric(number(b, out.Tables[0].Rows[0][1]), "pard-drop-at-200ms")
}

func BenchmarkFig14cLambdaSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14c")
	for _, row := range out.Tables[0].Rows {
		if lambda, _ := row[0].Number(); lambda == 0.1 {
			b.ReportMetric(number(b, row[1]), "lv-drop-at-lambda-0.1")
		}
	}
}

func BenchmarkFig14dWindowSensitivity(b *testing.B) {
	out := runExperiment(b, "fig14d")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "window-points")
}

func BenchmarkFig15aRAGGoodput(b *testing.B) {
	out := runExperiment(b, "fig15a")
	for _, row := range out.Tables[0].Rows {
		b.ReportMetric(number(b, row[2]), row[0].String()+"-drop-pct")
	}
}

func BenchmarkFig15bRAGLatency(b *testing.B) {
	out := runExperiment(b, "fig15b")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "percentiles")
}

func BenchmarkDAGDynamicPaths(b *testing.B) {
	out := runExperiment(b, "dag-dynamic")
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "traces")
}

// Whole operations. Each is defined once, below, and run both by its
// Benchmark* (ns/op, for profiling) and by TestAllocsWholeOps (allocation and
// byte ceilings, a tier-1 test). An op returns the simulated events it fired,
// 0 where nothing is simulated.

// shardedDA is one run of the paper's 5-module DA DAG at a balanced high load
// (every module processes the full request stream, so all five lanes carry
// dense traffic): 3 500 req/s for 20 s of virtual time, 70 k requests.
// NetDelay doubles as the lane engine's conservative lookahead window.
func shardedDA(tb testing.TB) func() uint64 {
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind: pard.Steady, Duration: 20 * time.Second, PeakRate: 3500, Seed: 1,
	})
	cfg := pard.SimConfig{
		Spec:         pard.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         1,
		SyncPeriod:   time.Second,
		NetDelay:     5 * time.Millisecond,
		FixedWorkers: []int{40, 40, 40, 40, 40},
	}
	return func() uint64 {
		res, err := pard.Simulate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return res.SimEvents
	}
}

// BenchmarkShardedDASequential is the lane engine on the dense DA run:
// per-module lanes advanced one after another. Typed lane events need no
// per-event allocation, and no lane keeps a deep heap — the source lane's
// 70 k arrivals, all queued at t = 0, sit in a time-ordered array that is
// read front to back, each module's posts sit in another, and each lane's
// heap holds only its in-flight batch ends and the posts that arrive out of
// time order (tens of entries).
func BenchmarkShardedDASequential(b *testing.B) {
	op := shardedDA(b)
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events = op()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// longChain is one PARD run on a 70-module chain (every stage eyetrack, 3 s
// SLO, one hop of 1 ms each) at 300 req/s for 10 s of virtual time, syncing
// every 100 ms: each of the hundred State Planner ticks refreshes the
// downstream estimate of 69 suffixes, the run's PARD-only cost.
func longChain(tb testing.TB) func() uint64 {
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind: pard.Steady, Duration: 10 * time.Second, PeakRate: 300, Seed: 1,
	})
	cfg := pard.SimConfig{
		Spec:       pard.Chain("chain70", 3*time.Second, 70, "eyetrack"),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       1,
		SyncPeriod: 100 * time.Millisecond,
	}
	return func() uint64 {
		res, err := pard.Simulate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return res.SimEvents
	}
}

func BenchmarkLongChain(b *testing.B) { benchOp(b, longChain(b)) }

// laneGroupCfg is the workload of the lane-group ops: a short DA run with a
// tight sync period, so the per-window barrier exchange (posts + intents +
// charges all-gather) dominates the topology overhead being measured.
func laneGroupCfg() pard.SimConfig {
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind: pard.Steady, Duration: 4 * time.Second, PeakRate: 300, Seed: 1,
	})
	return pard.SimConfig{
		Spec:         pard.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         1,
		SyncPeriod:   100 * time.Millisecond,
		FixedWorkers: []int{8, 8, 8, 8, 8},
	}
}

// laneGroupMem is one 2-group run on the in-process fabric: one goroutine per
// group, each with Config.Remote set to an endpoint of sched.NewMemTransports.
func laneGroupMem(tb testing.TB) func() uint64 {
	cfg := laneGroupCfg()
	return func() uint64 {
		const groups = 2
		var res [groups]*pard.SimResult
		var errs [groups]error
		trs := sched.NewMemTransports(groups)
		var wg sync.WaitGroup
		for g := range trs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := cfg
				c.Remote = &simgpu.RemoteTopology{Groups: groups, Group: g, Transport: trs[g]}
				if res[g], errs[g] = pard.Simulate(c); errs[g] != nil {
					trs[g].Abort(errs[g])
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				tb.Fatal(err)
			}
		}
		return res[0].SimEvents
	}
}

// laneGroupLoopback is the same 2-group run over real loopback TCP through
// the framed binary exchange codec (internal/dist, the -hosts path): a hub
// dialing one spoke served from a listener the op keeps open.
func laneGroupLoopback(tb testing.TB) func() uint64 {
	cfg := laneGroupCfg()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	return func() uint64 {
		spokeDone := make(chan error, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				spokeDone <- err
				return
			}
			_, err = dist.ServeSim(conn, dist.SimOptions{})
			spokeDone <- err
		}()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		res, err := dist.RunSimDistributed(cfg, []net.Conn{conn}, dist.SimOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := <-spokeDone; err != nil {
			tb.Fatal(err)
		}
		return res.SimEvents
	}
}

// benchOp times op.
func benchOp(b *testing.B, op func() uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkLaneGroupBarrier measures the lane-group exchange machinery by
// running the identical 2-group simulation over both Transport
// implementations: the in-process fabric and the framed binary exchange
// codec over real loopback TCP. The gap between the two is the wire cost of
// the lockstep protocol — one kernel round trip and one encode/decode per
// exchange; both variants span two full cluster replicas per op.
func BenchmarkLaneGroupBarrier(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchOp(b, laneGroupMem(b)) })
	b.Run("loopback", func(b *testing.B) { benchOp(b, laneGroupLoopback(b)) })
}

// sweepGrid is the end-to-end sweep hot loop — trace generation, simulation,
// metrics collection, and percentile finalization — on a small Fig. 13-style
// grid (lv × tweet × {pard, pard-instant} with load-factor probes). Each op
// builds a fresh engine with no disk cache, so nothing is served warm: its
// allocations are those of one whole grid, which is what the scratch-buffer
// reuse across metrics/stats/trace/sweep is meant to hold down.
func sweepGrid(tb testing.TB) func() uint64 {
	specs := []pard.SweepSpec{
		{App: "lv", Kind: pard.Tweet, Policy: "pard",
			Opts: pard.SweepRunOpts{Probes: pard.ProbeConfig{LoadFactor: true}}},
		{App: "lv", Kind: pard.Tweet, Policy: "pard-instant",
			Opts: pard.SweepRunOpts{Probes: pard.ProbeConfig{LoadFactor: true}}},
	}
	return func() uint64 {
		eng := pard.NewSweepEngine(pard.SweepConfig{
			Workers: 1, BaseSeed: 1, TraceDuration: 30 * time.Second,
		})
		results, err := eng.Sweep(specs)
		if err != nil {
			tb.Fatal(err)
		}
		// Finalize the derived metrics every real sweep consumer reads.
		var events uint64
		for _, res := range results {
			s := res.Collector.Summary()
			if s.Total == 0 {
				tb.Fatal("empty run")
			}
			res.Collector.MinNormalizedGoodput(10 * time.Second)
			res.Collector.MaxDropRate(10 * time.Second)
			res.Collector.LatencyQuantiles(0.5, 0.9, 0.99)
			events += res.SimEvents
		}
		return events
	}
}

func BenchmarkSweepGrid(b *testing.B) { benchOp(b, sweepGrid(b)) }

// serverSubmitter starts a live server on the data-plane hot path — submit
// (atomic ID, slab-allocated request, pooled channel, outstanding-list
// registration), core traversal of a 3-module chain, and response delivery —
// on a deterministic manual clock, so no wall-time sleeping pollutes the op.
// It returns submit, which sends n requests and steps virtual time until
// every response resolves (the core guarantees every injected request
// terminates).
//
// A warm-up before it returns: the first requests pay for the request slab,
// the channel pool, the worker batch slabs and the collector's first growth,
// and for one timed request that one-time cost was the whole measurement (81
// allocations against 6 a request over 100). Three quarters of a batch, so
// that the first timed request is not request 513, the one that finds every
// doubling slice and the 256-request slab full at once. What one submit(1)
// then costs is one request plus the three sync ticks inside one SLO of
// virtual time.
func serverSubmitter(tb testing.TB) (submit func(n int)) {
	man := sched.NewManualExecutor()
	s := fastServer(tb, man)
	s.Start()
	tb.Cleanup(s.Stop)
	chans := make([]<-chan server.Response, serverBatch)
	submit = func(n int) {
		for j := 0; j < n; j++ {
			chans[j] = s.Submit()
		}
		next := 0
		for guard := 0; next < n; guard++ {
			man.RunUntil(man.Now() + fastSLO)
			for ; next < n; next++ {
				select {
				case <-chans[next]:
				default:
					goto stepped
				}
			}
		stepped:
			if guard > 1000 {
				tb.Fatalf("batch stalled: %d/%d resolved", next, n)
			}
		}
	}
	submit(serverBatch * 3 / 4)
	return submit
}

// fastSLO is fastServer's end-to-end SLO.
const fastSLO = 150 * time.Millisecond

// fastServer is the live server of the server ops: a 3-stage chain of a
// model whose batches take about a millisecond, on exec (nil: the wall
// clock).
func fastServer(tb testing.TB, exec *sched.LaneExecutor) *server.Server {
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "fast",
		Alpha:    200 * time.Microsecond,
		Beta:     100 * time.Microsecond,
		MaxBatch: 8,
	}); err != nil {
		tb.Fatal(err)
	}
	s, err := server.New(server.Config{
		Spec:       pipeline.Uniform("bench", 3, "fast", fastSLO),
		Lib:        lib,
		PolicyName: "pard",
		SyncPeriod: 50 * time.Millisecond,
		Seed:       1,
		Exec:       exec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// serverBatch is the most requests one submit call takes.
const serverBatch = 512

// BenchmarkServerSubmit measures the live server's request lifecycle,
// submitting in batches and stepping the virtual clock until every response
// resolves. This is the path pard-load hammers over HTTP.
func BenchmarkServerSubmit(b *testing.B) {
	submit := serverSubmitter(b)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(serverBatch, b.N-done)
		submit(n)
		done += n
	}
	b.StopTimer()
}

// httpRequests is how many requests one HTTPInfer op sends.
const httpRequests = 200

// httpInfer puts fastServer on the wall clock behind a loopback listener and
// returns an op that sends httpRequests requests one after another through
// load.Run over one kept-alive connection, streaming a record per request:
// the /infer handler, its reply codec and the load client, plus what
// net/http itself allocates per request. A first op opens the connection and
// fills the pools before the op is returned.
func httpInfer(tb testing.TB) func() uint64 {
	s := fastServer(tb, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone(), Timeout: 30 * time.Second}
	s.Start()
	go hs.Serve(l)
	tb.Cleanup(func() {
		hs.Close()
		s.Stop()
		client.CloseIdleConnections()
	})
	target := "http://" + l.Addr().String()
	op := func() uint64 {
		rep, err := load.Run(load.Config{
			Target: target, Mode: load.ModeClosed, Conns: 1, Requests: httpRequests,
			Client: client, Stream: io.Discard, Seed: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Answered != httpRequests {
			tb.Fatalf("%d of %d requests answered: %+v", rep.Answered, httpRequests, rep)
		}
		return 0
	}
	op()
	return op
}

// BenchmarkHTTPInfer measures httpRequests sequential POST /infer round
// trips over loopback, from the load client's send to its decoded reply.
func BenchmarkHTTPInfer(b *testing.B) { benchOp(b, httpInfer(b)) }

// BenchmarkTimerExecutor measures the live server's paced executor with no
// core behind it: one op schedules 10 k events a few microseconds ahead from
// outside and waits for the drainer to fire them — queue push and pop, the
// wake-up, the lag counters. The callback is pre-bound and a first round,
// queued whole behind a callback that holds the drainer, sizes the queue for
// any later one, so what is pinned is the steady state: 0 allocs/op (one
// runtime timer per event cost ≥ 3 per event).
func BenchmarkTimerExecutor(b *testing.B) {
	const events = 10000
	x := sched.NewTimerExecutor()
	defer x.Stop()
	var wg sync.WaitGroup
	fired := func(time.Duration) { wg.Done() }
	round := func() {
		wg.Add(events)
		for k := 0; k < events; k++ {
			x.Schedule(x.Now()+5*time.Microsecond, "ev", fired)
		}
	}
	hold := make(chan struct{})
	x.Schedule(x.Now(), "hold", func(time.Duration) { <-hold })
	round()
	close(hold)
	wg.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
}

// ragRun is the §7 case study as a host of the event queue: one rag.Run at
// DefaultConfig under the proactive policy — 10 k queries, ≈ 41 k typed
// events on a ManualExecutor, three sliding windows read at every admission.
// The events are pointers into the run's request slab, so its allocations
// count slices grown, not events fired (a closure per event made it ≈ 67 k),
// and the window mean is O(1), so its time does not scale with the ≈ 460
// samples a window holds.
func ragRun(tb testing.TB) func() uint64 {
	cfg := rag.DefaultConfig(rag.Proactive)
	return func() uint64 {
		res, err := rag.Run(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Good == 0 || res.Dropped == 0 {
			tb.Fatalf("good %d, dropped %d: the run is not in the regime it models", res.Good, res.Dropped)
		}
		return 0
	}
}

func BenchmarkRAGRun(b *testing.B) { benchOp(b, ragRun(b)) }

// Layer rows of the lane engine: three pieces of work under a simulation's
// hot loop, each on the sizes BenchmarkShardedDASequential gives them, so
// that when the whole-run number moves, each layer can be timed on its own.

// BenchmarkLaneQueue measures one push and one pop on a lane queue in the
// source lane's regime: a 70 k-event trace queued up front in time order,
// and 64 follow-up events in flight below its tail, as batch ends are. The
// queue is private to internal/sched, so the benchmark drives an executor's
// control lane — the same laneState and queue as a module lane — through
// Schedule and Run; an op is one event, and the callback is a shared closure
// that schedules at most one follow-up.
func BenchmarkLaneQueue(b *testing.B) {
	const trace, inFlight = 70000, 64
	for i := 0; i < b.N; i++ {
		x := sched.NewLaneExecutor(1, 0)
		var arrive, end func(time.Duration)
		end = func(time.Duration) {}
		arrive = func(now time.Duration) {
			x.Schedule(now+inFlight*time.Microsecond+time.Nanosecond, "end", end)
		}
		for k := 1; k <= trace; k++ {
			x.Schedule(time.Duration(k)*time.Microsecond, "arrive", arrive)
		}
		x.Run()
		if x.Fired() != 2*trace {
			b.Fatalf("fired %d events, want %d", x.Fired(), 2*trace)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*trace), "ns/event")
}

// modulePublish sets up the sync tick's per-module state publication (§4.1
// step ②) over a full window: a single-module cluster is fed 3 500 req/s for
// one queue window, so its Q+W+D window holds about 17.5 k samples — what
// every DA module holds in shardedDA — and then, from one control event,
// hands measure a tick that runs SyncTick: the window copy, the p95
// selection, the board's copy and PARD-WCL's budget reallocation. It runs
// pard-wcl because only a policy that reads WCL keeps the Q+W+D window, the
// largest a module keeps; pard-wcl reads neither queueing delay nor batch
// wait, so its module keeps neither of those windows
// (TestWindowsOnlyForReaders). The module's scratch buffers, the policy's
// budgets and the board slot are warmed before measure is called.
func modulePublish(tb testing.TB, measure func(tick func())) {
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{Name: "stage", Alpha: 2 * time.Millisecond, Beta: 500 * time.Microsecond, MaxBatch: 16}); err != nil {
		tb.Fatal(err)
	}
	const rate, window = 3500, 5 * time.Second
	plan, err := sched.NewPlan(pipeline.Uniform("publish", 1, "stage", 400*time.Millisecond), lib, []int{40}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	x := sched.NewLaneExecutor(1, time.Millisecond)
	cl, err := sched.New(plan, sched.Config{PolicyName: "pard-wcl", Seed: 1, NetDelay: time.Millisecond}, x)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]sched.Request, rate*int(window/time.Second))
	for i := range reqs {
		at := time.Duration(i) * time.Second / rate
		reqs[i] = sched.Request{ID: uint64(i), Send: at, Deadline: at + 400*time.Millisecond}
		cl.Inject(&reqs[i], at)
	}
	x.Schedule(window, "publish", func(now time.Duration) {
		tick := func() { cl.SyncTick(now) }
		tick()
		measure(tick)
	})
	x.Run()
	if wcl := cl.Board().Get(0).WCL; wcl <= 0 {
		tb.Fatalf("published WCL = %v: the window was empty", wcl)
	}
}

func BenchmarkModulePublish(b *testing.B) {
	modulePublish(b, func(tick func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
		b.StopTimer()
	})
}

// withoutGC runs op with the collector paused. A collection allocates for the
// runtime's own bookkeeping — sudogs for the mark workers, whose central cache
// every cycle empties, and room in a timer heap — and those land in whatever
// op is being counted: a RAG run's 64 allocations read 64–69 with the
// collector on, whether it ran alone or after the HTTP ops, and 64 every time
// with it paused. A collection also empties every sync.Pool, so an op that
// takes pooled objects after one — a request's response channel — pays for
// new ones.
func withoutGC(op func() uint64) func() uint64 {
	return func() uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return op()
	}
}

// TestAllocsWholeOps holds each whole op above under two ceilings: the
// allocations of one op (testing.AllocsPerRun) and the bytes it allocates
// (runtime.MemStats.TotalAlloc around one warmed op). A ceiling is the count
// measured when it was set plus a slack at least as wide as the spread seen
// over 20 runs and under -race, and at most 5 % — except the loopback run,
// whose -race readings (sync.Pool drops items under the race detector) sit
// ≈ 74 above its plain ones (20 %), and HTTPInfer, which is skipped under
// -race (its pooled per-request state is rebuilt whenever the pool drops
// it, ≈ 10 % more allocations). RAGRun and ServerSubmit are counted with the
// collector paused (withoutGC), so their counts are their own and have no
// spread. One extra
// allocation per scheduled event fails every op that schedules events, and
// one per sync tick fails every op but RAGRun (no ticks) and the loopback run
// (its -race spread is wider than its 80 ticks). A sync tick allocates nothing (ModulePublish), and neither
// does a request submitted and answered (ServerSubmit): its response channel
// goes back to the pool with the answer, and the server keeps a fixed-size
// tally, not a record per request. Of HTTPInfer's ≈ 75 allocations a request
// all but five are net/http's own (the handler's five: the header map entry,
// its clone at the first write, the request context's done channel); three
// more a request, one stall timer's worth, fail it. A simulation's event
// count is pinned exactly. A change that earns a lower count lowers its
// ceiling in the same commit; the paths pinned at zero per operation live
// beside the code they pin (TestAllocsTimerExecutor, TestAllocsLaneQueue,
// TestAllocsSelectP95, TestAllocsReplyCodec, ...).
func TestAllocsWholeOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole simulations")
	}
	type measure func(op func() uint64)
	ops := []struct {
		name          string
		allocs, bytes uint64 // ceilings per op
		events        uint64 // simulated events per op, exact (0: not a simulation)
		run           func(tb testing.TB, m measure)
	}{
		{"ShardedDASequential", 84, 18_100_000, 599514, func(tb testing.TB, m measure) { m(shardedDA(tb)) }},
		{"LaneGroupBarrier/mem", 294, 2_020_000, 13398, func(tb testing.TB, m measure) { m(laneGroupMem(tb)) }},
		{"LaneGroupBarrier/loopback", 462, 1_300_000, 13398, func(tb testing.TB, m measure) { m(laneGroupLoopback(tb)) }},
		{"SweepGrid", 653, 5_300_000, 113301, func(tb testing.TB, m measure) { m(sweepGrid(tb)) }},
		{"LongChain", 423, 8_700_000, 305303, func(tb testing.TB, m measure) { m(longChain(tb)) }},
		{"ServerSubmit", 0, 0, 0, func(tb testing.TB, m measure) {
			submit := serverSubmitter(tb)
			m(withoutGC(func() uint64 { submit(1); return 0 }))
		}},
		{"HTTPInfer", 15_400, 1_435_000, 0, func(tb testing.TB, m measure) {
			if raceDetector {
				tb.Skip("the handler's and the load client's pools drop items under -race")
			}
			m(httpInfer(tb))
		}},
		{"RAGRun", 66, 2_470_000, 0, func(tb testing.TB, m measure) { m(withoutGC(ragRun(tb))) }},
		{"ModulePublish", 0, 0, 0, func(tb testing.TB, m measure) {
			modulePublish(tb, func(tick func()) { m(func() uint64 { tick(); return 0 }) })
		}},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			o.run(t, func(op func() uint64) {
				var events uint64
				allocs := uint64(testing.AllocsPerRun(1, func() { events = op() }))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				op()
				runtime.ReadMemStats(&after)
				bytes := after.TotalAlloc - before.TotalAlloc
				t.Logf("%s: %d allocations, %d bytes, %d events per op", o.name, allocs, bytes, events)
				if events != o.events {
					t.Errorf("%s: %d simulated events per op, want %d", o.name, events, o.events)
				}
				if allocs > o.allocs {
					t.Errorf("%s: %d allocations per op, ceiling %d", o.name, allocs, o.allocs)
				}
				if bytes > o.bytes {
					t.Errorf("%s: %d bytes allocated per op, ceiling %d", o.name, bytes, o.bytes)
				}
			})
		})
	}
}

// BenchmarkPercentilesIntoP95 measures the selection inside that publish on
// its own: the p95 of a 17.5 k-sample buffer, refilled from the same
// unsorted values before every call (the copy is ~3 µs of it).
func BenchmarkPercentilesIntoP95(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 17500)
	for i := range values {
		values[i] = 0.03 + 0.01*rng.ExpFloat64()
	}
	work := make([]float64, len(values))
	var dst []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, values)
		dst = stats.PercentilesInto(dst[:0], work, 0.95)
	}
	if len(dst) != 1 || dst[0] <= 0 {
		b.Fatalf("p95 = %v", dst)
	}
}

// Micro-benchmarks for the §5.4 overhead analysis.

// BenchmarkDEPQOps measures put()/get() on the min-max heap at the queue
// depths the paper reports O(log n) costs for.
func BenchmarkDEPQOps(b *testing.B) {
	q := depq.New[int]()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i, int64(rng.Intn(1<<20)))
		if i%2 == 0 {
			q.PopMin()
		} else {
			q.PopMax()
		}
	}
}

// BenchmarkStateSync measures one full synchronization round: publishing
// five modules' state and refreshing PARD's estimator and priority
// controllers.
func BenchmarkStateSync(b *testing.B) {
	spec := pipeline.LV()
	durs := make([]time.Duration, spec.N())
	for i := range durs {
		durs[i] = 30 * time.Millisecond
	}
	pol, err := policy.New("pard", policy.Setup{
		Spec: spec,
		Durs: durs,
		Rng:  rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	board := core.NewBoard(spec.N())
	waits := make([]float64, 512)
	rng := rand.New(rand.NewSource(2))
	for i := range waits {
		waits[i] = rng.Float64() * 0.03
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < spec.N(); k++ {
			board.Publish(k, core.ModuleState{
				QueueDelay:  5 * time.Millisecond,
				ProfiledDur: 30 * time.Millisecond,
				BatchWait:   waits,
				InputRate:   300,
				Throughput:  400,
			})
		}
		pol.OnSync(time.Duration(i)*time.Second, board)
	}
}
