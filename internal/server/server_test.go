package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
)

// fastLib returns a profile library with sub-millisecond models so live
// tests finish quickly.
func fastLib(t *testing.T) *profile.Library {
	t.Helper()
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "fast",
		Alpha:    200 * time.Microsecond,
		Beta:     100 * time.Microsecond,
		MaxBatch: 8,
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

func fastServer(t *testing.T, pol string) *Server {
	t.Helper()
	// Generous SLO relative to the sub-millisecond models so the test is
	// robust to scheduler noise on loaded machines.
	spec := pipeline.Uniform("live", 3, "fast", 150*time.Millisecond)
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: pol,
		SyncPeriod: 20 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil spec accepted")
	}
	if _, err := New(Config{Spec: pipeline.DA()}); err != nil {
		t.Fatalf("DAG rejected by live runtime: %v", err)
	}
	spec := pipeline.Uniform("x", 2, "fast", time.Second)
	if _, err := New(Config{Spec: spec, Lib: fastLib(t), Workers: []int{1}}); err == nil {
		t.Fatal("bad worker counts accepted")
	}
	if _, err := New(Config{Spec: spec, Lib: fastLib(t), PolicyName: "bogus"}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestServeLightLoad(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	results := make([]Response, 50)
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = <-s.Submit()
			time.Sleep(time.Millisecond)
		}()
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()

	good := 0
	for _, r := range results {
		if r.Outcome == OutcomeGood {
			good++
		}
	}
	if good < 45 {
		t.Fatalf("only %d/50 good under light load", good)
	}
	sum := s.Summary()
	if sum.Total != 50 {
		t.Fatalf("summary total = %d", sum.Total)
	}
}

func TestServeOverloadDrops(t *testing.T) {
	// One worker per module, 4-deep pipeline with a tight SLO, and a burst
	// far beyond capacity: the policy must drop rather than serve everything
	// late.
	spec := pipeline.Uniform("hot", 3, "fast", 20*time.Millisecond)
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: "pard",
		Workers:    []int{1, 1, 1},
		SyncPeriod: 10 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	const n = 400
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[Outcome]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := <-s.Submit()
			mu.Lock()
			counts[r.Outcome]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[OutcomeDropped] == 0 {
		t.Fatalf("no drops under gross overload: %v", counts)
	}
	if counts[OutcomeGood] == 0 {
		t.Fatalf("total collapse: %v", counts)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// infer requires POST
	resp, err = http.Get(ts.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// POST /infer round trip
	resp, err = http.Post(ts.URL+"/infer", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Outcome != OutcomeGood {
		t.Fatalf("infer outcome = %s (latency %.1fms)", out.Outcome, out.LatencyMS)
	}

	// stats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum["Total"].(float64) < 1 {
		t.Fatalf("stats total = %v", sum["Total"])
	}
	// The paced executor's own counters sit beside the summary's fields: one
	// request on three stages is at least an arrival and three batch ends.
	ex, _ := sum["executor"].(map[string]any)
	if ex == nil || ex["fired"].(float64) < 4 || ex["lag_max_us"].(float64) < ex["lag_mean_us"].(float64) ||
		len(ex["lag_hist_pow2_us"].([]any)) != 16 {
		t.Fatalf("stats executor object = %v", sum["executor"])
	}
}

// TestInferBodyErrors: a body that cannot be read whole is refused before
// it reaches the pipeline — 413 when it runs past the 1 MiB bound, 400 with
// the read error's own message for anything else, here a client that goes
// away halfway through the body it declared.
func TestInferBodyErrors(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("over-bound", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/infer", "application/json", strings.NewReader(strings.Repeat("x", maxInferBody+1)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "over 1 MiB") {
			t.Fatalf("oversized POST /infer = %d %q, want 413", resp.StatusCode, body)
		}
	})
	t.Run("client-gone-mid-body", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /infer HTTP/1.1\r\nHost: pard\r\nContent-Length: 100\r\n\r\n{\"half\":"); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unexpected EOF") {
			t.Fatalf("POST /infer with a truncated body = %d %q, want 400 naming the EOF", resp.StatusCode, body)
		}
	})
	if n := s.Summary().Total; n != 0 {
		t.Fatalf("%d refused requests reached the pipeline", n)
	}
}

// dagSpec builds a DA-shaped diamond (fan-out at 0, merge at 3) over the
// fast test model.
func dagSpec(slo time.Duration) *pipeline.Spec {
	s := &pipeline.Spec{
		App: "dag-live",
		SLO: slo,
		Modules: []pipeline.Module{
			{ID: 0, Name: "fast", Subs: []int{1, 2}},
			{ID: 1, Name: "fast", Pres: []int{0}, Subs: []int{3}},
			{ID: 2, Name: "fast", Pres: []int{0}, Subs: []int{3}},
			{ID: 3, Name: "fast", Pres: []int{1, 2}, Subs: []int{4}},
			{ID: 4, Name: "fast", Pres: []int{3}},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// TestServeDAG pushes live traffic through a fan-out/merge pipeline: every
// request must resolve exactly once (the merge collects both branch copies)
// and light load must mostly succeed end-to-end.
func TestServeDAG(t *testing.T) {
	s, err := New(Config{
		Spec:       dagSpec(200 * time.Millisecond),
		Lib:        fastLib(t),
		PolicyName: "pard",
		SyncPeriod: 20 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	results := make([]Response, 40)
	for i := 0; i < 40; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = <-s.Submit()
		}()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// The load is light, but this runs on real timers: a loaded CI machine
	// can legitimately push requests past the SLO, so assert the DAG
	// invariants (every request resolves exactly once, service happens)
	// rather than a timing-sensitive success rate. Decision-level behavior
	// is covered deterministically by the parity test.
	good := 0
	for _, r := range results {
		if r.Outcome == OutcomeGood {
			good++
		}
	}
	if good == 0 {
		t.Fatalf("no request survived the live DAG: %+v", results)
	}
	if sum := s.Summary(); sum.Total != 40 {
		t.Fatalf("summary total = %d, want 40 (merge double-counted?)", sum.Total)
	}
}

func TestStopIdempotent(t *testing.T) {
	s := fastServer(t, "nexus")
	s.Start()
	s.Stop()
	s.Stop() // second stop is a no-op
}

func TestAllPoliciesServe(t *testing.T) {
	for _, pol := range []string{"pard", "nexus", "clipper++", "naive", "pard-lbf"} {
		s := fastServer(t, pol)
		s.Start()
		r := <-s.Submit()
		if r.Outcome != OutcomeGood {
			t.Fatalf("%s: outcome %s", pol, r.Outcome)
		}
		s.Stop()
	}
}

// TestIsolatedRequestLatency: on a jitter-free chain of three 0.3 ms stages
// an isolated request spends 0.9 ms in the model. Over the real paced
// executor the server reports no less than that (nothing fires early), no
// more than the test itself saw elapse around Submit (the ledger is the wall
// clock), and the host's wake-up lag is paid once, not once per stage: one
// timer per event, each handed the wall clock at fire, read about 3.5 ms.
func TestIsolatedRequestLatency(t *testing.T) {
	s := fastServer(t, "pard")
	s.Start()
	defer s.Stop()
	best := 1e9
	for i := 0; i < 5; i++ { // a busy host can delay any one wake-up
		before := time.Now()
		r := <-s.Submit()
		wallMS := float64(time.Since(before)) / float64(time.Millisecond)
		if r.Outcome != OutcomeGood || r.LatencyMS < 0.9 || r.LatencyMS > wallMS {
			t.Fatalf("request %d: %+v, with %.3f ms elapsed around it and 0.9 ms modelled", i, r, wallMS)
		}
		best = min(best, r.LatencyMS)
		time.Sleep(2 * time.Millisecond)
	}
	if best >= 3 {
		t.Fatalf("the quickest of 5 isolated requests took %.3f ms, want under 3", best)
	}
}

// TestLedgerOnExecutorClock: latency, the good/late verdict and the metrics
// tally are read off the executor's clock when the request resolves. With an
// SLO equal to the modelled 0.9 ms the completion meets its deadline in the
// model; under the injected clock that is the whole story (good, 0.9 ms
// exactly, as before), on the wall clock the delivery comes after the
// deadline and the request is late.
func TestLedgerOnExecutorClock(t *testing.T) {
	const modelled = 900 * time.Microsecond
	// serve returns the reply, the tally's resolution instant less the
	// request's own Send, and the summary.
	serve := func(exec sched.Executor, step func()) (Response, time.Duration, metrics.Summary) {
		s, err := New(Config{
			Spec: pipeline.Uniform("ledger", 3, "fast", modelled), Lib: fastLib(t),
			PolicyName: "naive", Seed: 1, Exec: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Stop()
		pr := s.submit()
		step()
		r := <-pr.done
		return r, s.tally.End() - pr.req.Send, s.Summary()
	}

	man := sched.NewManualExecutor()
	r, elapsed, sum := serve(man, func() { man.RunUntil(10 * time.Millisecond) })
	if r.Outcome != OutcomeGood || r.LatencyMS != 0.9 || elapsed != modelled || sum.Good != 1 {
		t.Fatalf("injected clock: %+v, tallied done %v after send, want good at exactly 0.9 ms", r, elapsed)
	}

	r, elapsed, sum = serve(nil, func() {})
	if r.Outcome != OutcomeLate || sum.Late != 1 || elapsed <= modelled ||
		r.LatencyMS != float64(elapsed.Microseconds())/1000 {
		t.Fatalf("wall clock: %+v, tallied done %v after send, want late with exactly that latency", r, elapsed)
	}
}
