package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pard/internal/load"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/server"
	"pard/internal/trace"
)

// ---- live-open-steps -------------------------------------------------------

// The open loop offers three fixed rates to the tm pipeline with one worker
// per module, whose modelled capacity is about 120 req/s.
var openRates = [3]float64{60, 90, 300}

// openShares splits the run's measuring time over the three rates. The light
// phase is the longest because the latency metrics are read there, and its
// batches, not its requests, are the independent samples. The overload phase
// is the shortest on purpose: under sustained overload the
// server parks requests at the far end of its queues until traffic stops, and
// a phase shorter than the failure deadline keeps that backlog visible as
// latency (server.overload_p99_ms, server.unresolved_overload) without any
// request being abandoned.
var openShares = [3]float64{0.5, 0.3, 0.2}

// openFailAfter is how long after its due instant an unanswered request is
// given up as failed: 10x the pipeline SLO, the live handler's own limit.
func openFailAfter(spec *pipeline.Spec) time.Duration { return 10 * spec.SLO }

// phaseOutcome is one open-loop phase on a fresh server.
type phaseOutcome struct {
	rate     float64
	window   time.Duration // the arrival window the rate was offered over
	sent     int
	good     int
	late     int
	dropped  int
	rejected int
	failed   int
	// latMs is the due-to-response latency of every request answered in
	// time; slowMs counts those answered later than 2.5x the SLO.
	latMs   []float64
	slow    int
	lagUs   []float64 // how far behind schedule the pacer issued each Submit
	summary metrics.Summary
	sumCall time.Duration // one Server.Summary() call after the phase
}

func newOpenServer(seed int64) (*server.Server, error) {
	return server.New(server.Config{
		Spec:       pipeline.TM(),
		PolicyName: "pard",
		Workers:    []int{1, 1, 1},
		Seed:       seed,
	})
}

// openPhase offers Poisson arrivals at the given rate for the window to a
// fresh server, through Server.Submit from one pacing goroutine, and times
// every request from the instant it was due.
func openPhase(rate float64, window time.Duration, seed int64, tr *tracer) (phaseOutcome, error) {
	out := phaseOutcome{rate: rate, window: window}
	arrivals, err := trace.Generate(trace.Config{Kind: trace.Steady, Duration: window, PeakRate: rate, Seed: seed})
	if err != nil {
		return out, err
	}
	s, err := newOpenServer(seed)
	if err != nil {
		return out, err
	}
	spec := pipeline.TM()
	failAfter := openFailAfter(spec)
	slowAfter := spec.SLO * 5 / 2

	n := arrivals.Len()
	out.sent = n
	responses := make([]server.Response, n)
	latency := make([]time.Duration, n)
	out.lagUs = make([]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)

	s.Start()
	start := time.Now()
	for i, at := range arrivals.Arrivals {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op, root := tr.newOp(), tr.newID()
		called := time.Now()
		ch := s.Submit()
		returned := time.Now()
		out.lagUs[i] = us(called.Sub(due))
		go func(i int) {
			defer wg.Done()
			responses[i] = <-ch
			answered := time.Now()
			latency[i] = answered.Sub(due)
			tr.add(op, root, "bench", "pacer.lag", due, called)
			tr.add(op, root, "server", "Server.Submit", called, returned)
			tr.add(op, root, "server", "response.wait", returned, answered)
			tr.record(root, op, 0, "bench", "request", due, answered)
		}(i)
	}

	// Every request resolves on its own or, at the failure deadline of the
	// last one, through Stop, which answers whatever is still outstanding.
	resolved := make(chan struct{})
	go func() { wg.Wait(); close(resolved) }()
	lastDue := start.Add(window)
	select {
	case <-resolved:
	case <-time.After(time.Until(lastDue.Add(failAfter))):
	}
	sumStart := time.Now()
	out.summary = s.Summary()
	out.sumCall = time.Since(sumStart)
	s.Stop()
	<-resolved

	for i, resp := range responses {
		stopped := resp.Outcome == server.OutcomeDropped && resp.DropModule == -1
		switch {
		case latency[i] > failAfter || stopped:
			out.failed++
			continue
		case resp.Outcome == server.OutcomeGood:
			out.good++
		case resp.Outcome == server.OutcomeLate:
			out.late++
		case resp.Outcome == server.OutcomeDropped:
			out.dropped++
		case resp.Outcome == server.OutcomeRejected:
			out.rejected++
		default:
			out.failed++ // an outcome the taxonomy does not know
			continue
		}
		out.latMs = append(out.latMs, ms(latency[i]))
		if latency[i] > slowAfter {
			out.slow++
		}
	}
	return out, nil
}

// ok reports whether the phase's rate was sustained: at least 99 % of the
// requests sent were answered good and none failed.
func (p phaseOutcome) ok() bool {
	return p.failed == 0 && float64(p.good) >= 0.99*float64(p.sent)
}

func runOpen(c *runCtx) error {
	// Set-up is a short burst of traffic through a throwaway server, which
	// warms the timer and goroutine machinery the phases run on.
	_, _, err := setUp(c, func() (struct{}, func(), error) {
		_, err := openPhase(openRates[0], 500*time.Millisecond, c.seed, nil)
		return struct{}{}, func() {}, err
	})
	if err != nil {
		return err
	}

	scale := 1.0
	var base phaseOutcome
	if c.traced() {
		// The traced pass spends a fifth of its time on an untraced 60 rps
		// phase, the baseline of the overhead figure.
		scale = 0.8
		if base, err = openPhase(openRates[0], c.budget(0.2), c.seed, nil); err != nil {
			return err
		}
	}
	cost := readHostCost()
	var phases [3]phaseOutcome
	for i, rate := range openRates {
		// Each phase draws its own arrival stream from the benchmark seed.
		phases[i], err = openPhase(rate, c.budget(scale*openShares[i]), c.seed+int64(i)*7919, c.tr)
		if err != nil {
			return err
		}
	}
	allocs, cpu := cost.since()

	var sent, good, answered int
	var window time.Duration
	var gpuTotal, gpuWaste time.Duration
	maxOK := 0.0
	for _, p := range phases {
		if got := p.good + p.late + p.dropped + p.rejected + p.failed; got != p.sent {
			c.res.violate("%.0f rps phase: sent %d but good+late+dropped+rejected+failed = %d", p.rate, p.sent, got)
		}
		// The server's own ledger must agree with what clients saw; requests
		// it had not resolved when the phase closed are the failed ones.
		s := p.summary
		if s.Good != p.good || s.Total > p.sent || s.Total < p.sent-p.failed {
			c.res.violate("%.0f rps phase: server counted %d good of %d, clients saw %d good of %d sent",
				p.rate, s.Good, s.Total, p.good, p.sent)
		}
		sent += p.sent
		good += p.good
		answered += len(p.latMs)
		window += p.window
		gpuTotal += s.GPUTotal
		gpuWaste += s.GPUWasted
		if p.ok() && p.rate > maxOK {
			maxOK = p.rate
		}
		c.res.Attempted += p.sent
		c.res.Failed += p.failed
	}
	light, over := phases[0], phases[2]
	if len(light.latMs) == 0 || answered == 0 {
		return errors.New("no request was answered")
	}

	r := c.res
	if !c.traced() {
		r.set("latency_p50_ms", median(light.latMs), len(light.latMs))
		r.set("latency_tail_ms", quantile(light.latMs, tailOpen), len(light.latMs))
		r.set("req_per_host_s", float64(answered)/window.Seconds(), answered)
		r.set("goodput_rps", float64(over.good)/over.window.Seconds(), over.sent)
		r.set("good_share", float64(good)/float64(sent), sent)
		r.set("gpu_useful_share", 1-float64(gpuWaste)/float64(gpuTotal), sent)
		r.set("allocs_per_op", allocs/float64(sent), sent)
		r.info("cpu_ms_per_op", ms(cpu)/float64(sent))
		return nil
	}

	var lag []float64
	for _, p := range phases {
		lag = append(lag, p.lagUs...)
	}
	lateP99 := quantile(lag, 0.99)
	if lateP99 > 2000 {
		r.warn("generator lag p99 %.0f us exceeds 2 ms: the open-loop latencies include the generator's", lateP99)
	}
	dropped := phases[0].dropped + phases[1].dropped + phases[2].dropped
	r.set("bench.gen_late_p99_us", lateP99, len(lag))
	r.set("bench.gen_late_max_ms", quantile(lag, 1)/1000, len(lag))
	r.set("policy.drop_share", float64(dropped)/float64(sent), sent)
	r.set("server.summary_us", us(over.sumCall), 1)
	r.set("server.cpu_us_per_req", us(cpu)/float64(sent), sent)
	r.set("server.open_p95_ms", quantile(light.latMs, 0.95), len(light.latMs))
	r.set("server.overload_p99_ms", quantile(over.latMs, 0.99), len(over.latMs))
	r.set("server.unresolved_overload", float64(over.slow+over.failed), over.sent)
	r.set("server.max_ok_rate_rps", maxOK, len(phases))
	c.setTraceOverhead(base.latMs, light.latMs)
	c.setLayerSelf()
	return runProbes(c)
}

// ---- live-http-closed ------------------------------------------------------

// fastLibrary is one model whose batches take about a millisecond, so host
// code, not modelled GPU time, is what a request waits for.
func fastLibrary() (*profile.Library, error) {
	lib := profile.NewLibrary()
	err := lib.Add(profile.Model{
		Name: "fast", Alpha: 200 * time.Microsecond, Beta: 100 * time.Microsecond, MaxBatch: 8,
	})
	return lib, err
}

const httpSLO = 150 * time.Millisecond

func newFastServer(seed int64) (*server.Server, error) {
	lib, err := fastLibrary()
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{
		Spec:       pipeline.Uniform("bench", 3, "fast", httpSLO),
		Lib:        lib,
		PolicyName: "pard",
		SyncPeriod: 50 * time.Millisecond,
		Seed:       seed,
	})
}

// httpFixture is the live server behind a real loopback listener.
type httpFixture struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	target string
	client *http.Client
}

// startHTTP brings the fixture up; with a tracer, the handler and the
// client's transport each record their side of every request.
func startHTTP(seed int64, tr *tracer) (*httpFixture, error) {
	srv, err := newFastServer(seed)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if tr != nil {
		handler = tracedHandler(handler, tr)
		rt = tracedRoundTripper{next: transport, tr: tr}
	}
	f := &httpFixture{
		srv:    srv,
		hs:     &http.Server{Handler: handler},
		served: make(chan error, 1),
		target: "http://" + l.Addr().String(),
		client: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	}
	srv.Start()
	go func() { f.served <- f.hs.Serve(l) }()
	return f, nil
}

func (f *httpFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.served
	f.srv.Stop()
	f.client.CloseIdleConnections()
}

// closedRun is one closed-loop run: load.Run's report plus the latency of
// every answered request.
type closedRun struct {
	*load.Report
	latMs []float64
}

// closedLoop drives the fixture with load.Run: two connections, each sending
// its next request as soon as the previous reply arrives. Latencies are read
// back from load.Run's own per-request stream, to the microsecond;
// Report.Latency comes from a histogram whose 64 us buckets would make the
// median read identically on most runs.
func (f *httpFixture) closedLoop(d time.Duration, seed int64) (closedRun, error) {
	var stream bytes.Buffer
	rep, err := load.Run(load.Config{
		Target: f.target, Mode: load.ModeClosed, Conns: 2, Duration: d, Seed: seed, Client: f.client,
		Stream: &stream,
	})
	if err != nil {
		return closedRun{}, err
	}
	run := closedRun{Report: rep}
	dec := json.NewDecoder(&stream)
	for dec.More() {
		var rec struct {
			LatencyMS float64 `json:"latency_ms"`
			Outcome   string  `json:"outcome"`
		}
		if err := dec.Decode(&rec); err != nil {
			return closedRun{}, fmt.Errorf("load stream: %w", err)
		}
		switch server.Outcome(rec.Outcome) {
		case server.OutcomeGood, server.OutcomeLate, server.OutcomeDropped:
			run.latMs = append(run.latMs, rec.LatencyMS)
		}
	}
	if len(run.latMs) != int(rep.Answered) {
		return closedRun{}, fmt.Errorf("load stream holds %d answered requests, the report %d", len(run.latMs), rep.Answered)
	}
	return run, nil
}

// submitLoop is the same closed loop without the socket: two goroutines
// calling Submit and waiting for the answer. Its median latency is what is
// left of http latency when HTTP is taken away.
func submitLoop(s *server.Server, d time.Duration) []float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			for time.Now().Before(deadline) {
				start := time.Now()
				<-s.Submit()
				lat = append(lat, ms(time.Since(start)))
			}
			mu.Lock()
			all = append(all, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// checkReport applies the live correctness checks to one closed-loop run and
// returns how many requests failed.
func (c *runCtx) checkReport(what string, rep closedRun) int {
	failed := int(rep.Timeouts + rep.Errors + rep.BadStatus)
	if got := rep.Good + rep.Late + rep.Dropped + rep.Rejected + uint64(failed); got != rep.Requests {
		c.res.violate("%s: sent %d but good+late+dropped+rejected+failed = %d", what, rep.Requests, got)
	}
	c.res.Attempted += int(rep.Requests)
	c.res.Failed += failed
	return failed
}

func runHTTP(c *runCtx) error {
	fix, teardown, err := setUp(c, func() (*httpFixture, func(), error) {
		f, err := startHTTP(c.seed, c.tr)
		if err != nil {
			return nil, nil, err
		}
		if _, err := f.closedLoop(time.Second, c.seed); err != nil { // warm-up
			f.close()
			return nil, nil, err
		}
		return f, f.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	if !c.traced() {
		warm := fix.srv.Summary()
		cost := readHostCost()
		rep, err := fix.closedLoop(c.budget(1), c.seed)
		if err != nil {
			return err
		}
		allocs, cpu := cost.since()
		c.checkReport("closed loop", rep)
		if rep.Answered == 0 {
			return errors.New("no request was answered")
		}
		s := fix.srv.Summary()
		if got := s.Total - warm.Total; got != int(rep.Requests) {
			c.res.violate("server counted %d requests, the client sent %d", got, rep.Requests)
		}
		n := int(rep.Answered)
		r := c.res
		r.set("latency_p50_ms", median(rep.latMs), n)
		r.set("latency_tail_ms", quantile(rep.latMs, tailHTTP), n)
		r.set("req_per_host_s", float64(rep.Answered)/rep.ElapsedSec, n)
		r.set("goodput_rps", rep.Goodput, n)
		r.set("good_share", float64(rep.Good)/float64(rep.Requests), int(rep.Requests))
		r.set("gpu_useful_share", 1-float64(s.GPUWasted-warm.GPUWasted)/float64(s.GPUTotal-warm.GPUTotal), n)
		r.set("allocs_per_op", allocs/float64(rep.Requests), int(rep.Requests))
		r.info("cpu_ms_per_op", ms(cpu)/float64(rep.Requests))
		return nil
	}

	// Traced pass. The fixture above records spans; the baseline for the
	// overhead figure is a second, untraced fixture on the same seed.
	plain, err := startHTTP(c.seed, nil)
	if err != nil {
		return err
	}
	heapBefore := heapInUse()
	cost := readHostCost()
	base, err := plain.closedLoop(c.budget(0.3), c.seed)
	_, cpu := cost.since()
	heapAfter := heapInUse() // before close: what the server still holds
	plain.close()
	if err != nil {
		return err
	}
	c.checkReport("baseline closed loop", base)

	rep, err := fix.closedLoop(c.budget(0.3), c.seed)
	if err != nil {
		return err
	}
	c.checkReport("traced closed loop", rep)
	if rep.Answered == 0 || base.Answered == 0 {
		return errors.New("no request was answered")
	}

	direct, err := newFastServer(c.seed)
	if err != nil {
		return err
	}
	direct.Start()
	inProcess := submitLoop(direct, c.budget(0.15))
	direct.Stop()
	if len(inProcess) == 0 {
		return fmt.Errorf("in-process closed loop answered nothing")
	}

	s := fix.srv.Summary()
	r := c.res
	r.set("policy.drop_share", float64(s.Dropped)/float64(s.Total), s.Total)
	r.set("server.http_p99_ms", quantile(base.latMs, 0.99), len(base.latMs))
	r.set("server.http_overhead_ms", median(base.latMs)-median(inProcess), len(inProcess))
	// Host cost comes from the untraced baseline: the span store would
	// otherwise count as the server's growth.
	r.set("server.cpu_us_per_req", us(cpu)/float64(base.Requests), int(base.Requests))
	r.set("server.heap_bytes_per_kreq", 1000*(float64(heapAfter)-float64(heapBefore))/float64(base.Requests), int(base.Requests))
	c.setTraceOverhead(base.latMs, rep.latMs)
	c.setLayerSelf()
	return runProbes(c)
}
