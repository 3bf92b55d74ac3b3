package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
)

// manualServer builds a server on an injected manual clock: nothing
// resolves until the test steps the clock, so lifecycle edges (cancel,
// stall, stop-with-inflight) are deterministic.
func manualServer(t *testing.T, slo time.Duration) (*Server, *sched.LaneExecutor) {
	t.Helper()
	spec := pipeline.Uniform("manual", 3, "fast", slo)
	man := sched.NewManualExecutor()
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: "pard",
		SyncPeriod: 50 * time.Millisecond,
		Seed:       1,
		Exec:       man,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, man
}

// TestInferClientCancel pins the client-disconnect path: a canceled request
// context must release the handler immediately instead of leaving the
// goroutine parked on the response channel for up to 10×SLO. Pre-fix the
// handler ignored r.Context(), so with a 5 s SLO it blocked for 50 s; the
// 2 s deadline below fails that code.
func TestInferClientCancel(t *testing.T) {
	s, _ := manualServer(t, 5*time.Second) // clock never stepped: never resolves
	s.Start()
	defer s.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/infer", nil).WithContext(ctx)
	rec := httptest.NewRecorder()

	returned := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(returned)
	}()
	time.Sleep(20 * time.Millisecond) // let the handler block on the select
	cancel()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still blocked 2s after client disconnect (r.Context ignored)")
	}
}

// TestInferStallTimeout pins the stall backstop: a pipeline that never
// resolves (manual clock, never stepped) must answer 504 after 10×SLO.
func TestInferStallTimeout(t *testing.T) {
	s, _ := manualServer(t, 5*time.Millisecond) // stall backstop at 50 ms
	s.Start()
	defer s.Stop()

	req := httptest.NewRequest(http.MethodPost, "/infer", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("stalled pipeline answered %d, want 504", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stall timeout took %v, want ~10×SLO", elapsed)
	}
	if !strings.Contains(rec.Body.String(), "stalled") {
		t.Fatalf("stall body = %q", rec.Body.String())
	}
}

// TestStopResolvesInFlight pins the shutdown drain: requests still queued
// inside the core when Stop runs must resolve as dropped (DropModule -1)
// instead of leaving their channels unresolved forever. Pre-fix this test
// times out on the unresolved channels.
func TestStopResolvesInFlight(t *testing.T) {
	s, man := manualServer(t, time.Second)
	s.Start()

	const n = 32
	chans := make([]<-chan Response, n)
	for i := range chans {
		chans[i] = s.Submit()
	}
	if pending := man.Pending(); pending == 0 {
		t.Fatal("no core events pending; submissions did not reach the executor")
	}
	s.Stop()

	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Outcome != OutcomeDropped {
				t.Fatalf("request %d resolved %q at shutdown, want dropped", i, r.Outcome)
			}
			if r.DropModule != -1 {
				t.Fatalf("request %d shutdown drop module = %d, want -1", i, r.DropModule)
			}
			if r.ID != uint64(i) {
				t.Fatalf("request %d resolved with ID %d", i, r.ID)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d never resolved after Stop", i)
		}
	}
	sum := s.Summary()
	if sum.Total != n || sum.Dropped != n {
		t.Fatalf("summary after shutdown drain: total=%d dropped=%d, want %d/%d",
			sum.Total, sum.Dropped, n, n)
	}
	// Shutdown drops are lifecycle events, not policy decisions: no module
	// may be charged for them.
	for k, pct := range sum.PerModuleDropPct {
		if pct != 0 {
			t.Fatalf("module %d charged %.1f%% of shutdown drops", k, pct)
		}
	}
}

// TestLateCoreCallbackAfterStop pins exactly-once resolution: when an
// injected executor replays a completion after Stop already resolved the
// request, the late callback must be a no-op (no double send, no double
// count).
func TestLateCoreCallbackAfterStop(t *testing.T) {
	s, man := manualServer(t, time.Second)
	s.Start()
	ch := s.Submit()
	s.Stop()
	r := <-ch
	if r.Outcome != OutcomeDropped {
		t.Fatalf("shutdown outcome = %q", r.Outcome)
	}
	// Replay the core: the arrival (and everything after it) fires now.
	man.RunUntil(man.Now() + 10*time.Second)
	select {
	case r2 := <-ch:
		t.Fatalf("request resolved twice: %+v", r2)
	default:
	}
	if sum := s.Summary(); sum.Total != 1 {
		t.Fatalf("request counted %d times", sum.Total)
	}
}

// TestSubmitAfterStop pins the immediate-drop fast path.
func TestSubmitAfterStop(t *testing.T) {
	s, _ := manualServer(t, time.Second)
	s.Start()
	s.Stop()
	select {
	case r := <-s.Submit():
		if r.Outcome != OutcomeDropped || r.DropModule != -1 {
			t.Fatalf("post-stop submit resolved %+v", r)
		}
	default:
		t.Fatal("post-stop submit did not resolve immediately")
	}
}

// TestStatsAndHealthzRejectNonGET pins the data-plane method checks
// (pre-fix, POST /stats happily served the summary), /deployment's too.
func TestStatsAndHealthzRejectNonGET(t *testing.T) {
	s, _ := manualServer(t, time.Second)
	s.Start()
	defer s.Stop()
	h := s.Handler()
	for _, path := range []string{"/stats", "/deployment", "/healthz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, rec.Code)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestStatsSingleCleanDocument pins the buffer-first encoding: the /stats
// body must be exactly one well-formed JSON document with the JSON content
// type — no error text appended after a partial body.
func TestStatsSingleCleanDocument(t *testing.T) {
	s, _ := manualServer(t, time.Second)
	s.Start()
	defer s.Stop()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("stats content type = %q", ct)
	}
	dec := json.NewDecoder(rec.Body)
	var sum map[string]any
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("stats body not JSON: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		t.Fatalf("stats body has trailing content after the document: %v", err)
	}
	if _, ok := sum["executor"]; ok {
		t.Fatalf("stats reports an executor the server does not own: %v", sum["executor"])
	}
}

// TestConcurrencyHammer drives the full HTTP data plane from many clients
// at once — some of which disconnect mid-request — then stops the server
// with traffic still arriving. Run under -race this exercises every
// lifecycle edge concurrently; the invariant is simply that every answered
// request carries a valid outcome and the server accounts for every
// submission exactly once.
func TestConcurrencyHammer(t *testing.T) {
	spec := pipeline.Uniform("hammer", 3, "fast", 100*time.Millisecond)
	s, err := New(Config{
		Spec:       spec,
		Lib:        fastLib(t),
		PolicyName: "pard",
		SyncPeriod: 10 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients  = 8
		perConn  = 40
		cancelTh = 4 // every 4th request disconnects early
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[Outcome]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perConn; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%cancelTh == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/infer", nil)
				resp, err := http.DefaultClient.Do(req)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					continue // canceled in flight
				}
				var out Response
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if derr != nil {
					t.Errorf("client %d: bad response body: %v", c, derr)
					return
				}
				switch out.Outcome {
				case OutcomeGood, OutcomeLate, OutcomeDropped:
				default:
					t.Errorf("client %d: invalid outcome %q", c, out.Outcome)
					return
				}
				mu.Lock()
				outcomes[out.Outcome]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if outcomes[OutcomeGood] == 0 {
		t.Fatalf("hammer produced no good responses: %v", outcomes)
	}

	// Stop with live traffic still arriving: submissions racing the stop
	// latch must all resolve (immediately or via the shutdown drain).
	var stopWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		stopWG.Add(1)
		go func() {
			defer stopWG.Done()
			for i := 0; i < 20; i++ {
				select {
				case <-s.Submit():
				case <-time.After(5 * time.Second):
					t.Error("submission racing Stop never resolved")
					return
				}
			}
		}()
	}
	s.Stop()
	stopWG.Wait()

	// A client canceled before its handler ran never submitted, and
	// submissions landing after the stop latch resolve without entering
	// the collector — so the accounting floor is the answered HTTP count
	// (every answered request was submitted before Stop).
	answered := 0
	for _, n := range outcomes {
		answered += n
	}
	sum := s.Summary()
	if sum.Total < answered {
		t.Fatalf("summary total %d < %d answered over HTTP", sum.Total, answered)
	}
}

// TestStopStopsInjectedWallClock: Stop ends the executor the server runs on
// even when the caller injected a wall clock, so its drainer does not outlive
// the server: an event scheduled on it afterwards never fires.
func TestStopStopsInjectedWallClock(t *testing.T) {
	x := sched.NewTimerExecutor()
	defer x.Stop()
	s := boundedServer(t, time.Second, 0, x)
	s.Start()
	if r := <-s.Submit(); r.Outcome != OutcomeGood {
		t.Fatalf("a lone request on the injected wall clock: %+v", r)
	}
	s.Stop()
	fired := make(chan struct{})
	x.Schedule(x.Now(), "late", func(time.Duration) { close(fired) })
	select {
	case <-fired:
		t.Fatal("the injected wall clock still fires after Server.Stop")
	case <-time.After(50 * time.Millisecond):
	}
}
