package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
)

// boundedServer is manualServer with an in-flight bound, on the executor exec.
func boundedServer(t *testing.T, slo time.Duration, maxInFlight int, exec *sched.LaneExecutor) *Server {
	t.Helper()
	s, err := New(Config{
		Spec:        pipeline.Uniform("manual", 3, "fast", slo),
		Lib:         fastLib(t),
		PolicyName:  "pard",
		SyncPeriod:  50 * time.Millisecond,
		Seed:        1,
		Exec:        exec,
		MaxInFlight: maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// admissionServer is boundedServer on a fresh ManualExecutor.
func admissionServer(t *testing.T, slo time.Duration, maxInFlight int) (*Server, *sched.LaneExecutor) {
	t.Helper()
	man := sched.NewManualExecutor()
	return boundedServer(t, slo, maxInFlight, man), man
}

// TestAdmissionMaxInFlight pins the in-flight bound end to end: submissions
// beyond the cap reject immediately without touching the core, resolved
// requests free their slots, and /stats accounts for every rejection.
func TestAdmissionMaxInFlight(t *testing.T) {
	s, man := admissionServer(t, time.Second, 2)
	s.Start()
	defer s.Stop()

	a, b := s.Submit(), s.Submit()
	pendingBefore := man.Pending()

	// Third submission: over the bound — must resolve instantly as rejected
	// and must not schedule anything on the executor.
	select {
	case r := <-s.Submit():
		if r.Outcome != OutcomeRejected {
			t.Fatalf("over-bound submit resolved %q, want rejected", r.Outcome)
		}
		if r.ID != 2 {
			t.Fatalf("rejected submit got ID %d, want 2", r.ID)
		}
	default:
		t.Fatal("over-bound submit did not resolve immediately")
	}
	if got := man.Pending(); got != pendingBefore {
		t.Fatalf("rejection touched the executor: pending %d -> %d", pendingBefore, got)
	}

	// Drain the admitted pair; their slots must free up.
	man.RunUntil(man.Now() + 10*time.Second)
	for i, ch := range []<-chan Response{a, b} {
		select {
		case r := <-ch:
			if r.Outcome == OutcomeRejected {
				t.Fatalf("admitted request %d resolved as rejected", i)
			}
		default:
			t.Fatalf("admitted request %d never resolved", i)
		}
	}
	ch := s.Submit()
	select {
	case r := <-ch:
		if r.Outcome == OutcomeRejected {
			t.Fatal("post-drain submit rejected; in-flight slots not released")
		}
		t.Fatalf("post-drain submit resolved prematurely: %+v", r)
	default: // admitted: pending inside the core
	}

	sum := s.Summary()
	if sum.Rejected != 1 {
		t.Fatalf("summary rejected = %d, want 1", sum.Rejected)
	}
	if sum.Total != 3 {
		t.Fatalf("summary total = %d, want 3 (2 answered + 1 rejected; 1 still in flight)", sum.Total)
	}
}

// TestAdmissionRejectedHTTP pins the wire shape of a rejection: 429 status,
// a one-second Retry-After hint, and a JSON body with outcome "rejected" and
// no drop_module key.
func TestAdmissionRejectedHTTP(t *testing.T) {
	s, _ := admissionServer(t, time.Second, 1)
	s.Start()
	defer s.Stop()
	s.Submit() // takes the one slot; the clock never moves, so it keeps it

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("rejected request answered %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body not JSON: %v", err)
	}
	if body["outcome"] != "rejected" || body["id"] != 1.0 {
		t.Fatalf("429 body %s, want id 1 and outcome rejected", rec.Body.String())
	}
	if _, ok := body["drop_module"]; ok {
		t.Fatalf("429 body carries drop_module: %s", rec.Body.String())
	}
}

// TestAdmissionStopRace pins the lifecycle interleavings around Stop:
// requests admitted before Stop drain as dropped exactly once; a rejected
// request was never injected, so replaying the executor afterwards must not
// resolve it a second time; and submissions after Stop keep the immediate
// dropped fast path even with a bound set.
func TestAdmissionStopRace(t *testing.T) {
	s, man := admissionServer(t, time.Second, 1)
	s.Start()

	admitted := s.Submit()
	rejected := s.Submit() // over the bound
	if r := <-rejected; r.Outcome != OutcomeRejected {
		t.Fatalf("second submit resolved %q, want rejected", r.Outcome)
	}

	s.Stop()
	if r := <-admitted; r.Outcome != OutcomeDropped || r.DropModule != -1 {
		t.Fatalf("admitted request resolved %+v at shutdown", r)
	}

	// Replay everything the core had scheduled: neither channel may see a
	// second resolution.
	man.RunUntil(man.Now() + 10*time.Second)
	select {
	case r := <-admitted:
		t.Fatalf("admitted request resolved twice: %+v", r)
	case r := <-rejected:
		t.Fatalf("rejected request resolved twice: %+v", r)
	default:
	}

	// Post-stop submissions drop immediately (in-flight slot freed by the
	// drain, so the bound admits and the stop latch answers).
	select {
	case r := <-s.Submit():
		if r.Outcome != OutcomeDropped || r.DropModule != -1 {
			t.Fatalf("post-stop submit resolved %+v", r)
		}
	default:
		t.Fatal("post-stop submit did not resolve immediately")
	}

	sum := s.Summary()
	if sum.Total != 2 || sum.Dropped != 1 || sum.Rejected != 1 {
		t.Fatalf("summary total=%d dropped=%d rejected=%d, want 2/1/1",
			sum.Total, sum.Dropped, sum.Rejected)
	}
}

// TestAdmissionDisabledUntouched pins what the bound leaves alone: it has no
// tick of its own, so a started server's executor holds and fires exactly
// the same events, instant by instant, with a bound as without one, and an
// unbounded server admits and serves every submission.
func TestAdmissionDisabledUntouched(t *testing.T) {
	type count struct {
		fired   uint64
		pending int
	}
	// The executor keeps no event names; what it holds and has fired at
	// each millisecond of an idle second names every event by its instant.
	timeline := func(maxInFlight int) []count {
		man := sched.NewManualExecutor()
		s := boundedServer(t, time.Second, maxInFlight, man)
		s.Start()
		defer s.Stop()
		tl := []count{{man.Fired(), man.Pending()}}
		for at := time.Millisecond; at <= time.Second; at += time.Millisecond {
			man.RunUntil(at)
			tl = append(tl, count{man.Fired(), man.Pending()})
		}
		return tl
	}
	unbounded, bounded := timeline(0), timeline(1)
	if unbounded[0].pending == 0 || unbounded[len(unbounded)-1].fired == 0 {
		t.Fatalf("an idle started server queued %d events and fired %d in a second", unbounded[0].pending, unbounded[len(unbounded)-1].fired)
	}
	for i := range unbounded {
		if bounded[i] != unbounded[i] {
			t.Fatalf("at %d ms: %+v events with a bound, %+v without", i, bounded[i], unbounded[i])
		}
	}

	s, man := admissionServer(t, time.Second, 0)
	s.Start()
	defer s.Stop()
	before := man.Pending()
	ch := s.Submit()
	if man.Pending() <= before {
		t.Fatal("submission did not reach the executor")
	}
	man.RunUntil(man.Now() + 10*time.Second)
	r := <-ch
	if r.Outcome == OutcomeRejected {
		t.Fatalf("unbounded server rejected a request: %+v", r)
	}
	if sum := s.Summary(); sum.Rejected != 0 {
		t.Fatalf("unbounded server recorded %d rejections", sum.Rejected)
	}
}

// TestResponseDropModuleJSON pins the satellite fix: drop_module must be
// emitted for every dropped response — including drops at module 0, which
// the old `omitempty` tag silently swallowed — and omitted otherwise.
func TestResponseDropModuleJSON(t *testing.T) {
	cases := []struct {
		resp     Response
		wantKey  bool
		wantDrop float64
	}{
		{Response{ID: 1, Outcome: OutcomeDropped, DropModule: 0}, true, 0},
		{Response{ID: 2, Outcome: OutcomeDropped, DropModule: 3}, true, 3},
		{Response{ID: 3, Outcome: OutcomeDropped, DropModule: -1}, true, -1},
		{Response{ID: 4, Outcome: OutcomeGood}, false, 0},
		{Response{ID: 5, Outcome: OutcomeLate}, false, 0},
		{Response{ID: 6, Outcome: OutcomeRejected}, false, 0},
	}
	for _, tc := range cases {
		raw, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatalf("%+v: %v", tc.resp, err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%+v: %v", tc.resp, err)
		}
		v, ok := m["drop_module"]
		if ok != tc.wantKey {
			t.Fatalf("%+v marshaled %s: drop_module presence = %v, want %v", tc.resp, raw, ok, tc.wantKey)
		}
		if ok && v.(float64) != tc.wantDrop {
			t.Fatalf("%+v marshaled %s: drop_module = %v, want %v", tc.resp, raw, v, tc.wantDrop)
		}
		// Round trip: clients decode into the same struct.
		var back Response
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%+v: decode: %v", tc.resp, err)
		}
		if back.ID != tc.resp.ID || back.Outcome != tc.resp.Outcome {
			t.Fatalf("round trip %+v -> %+v", tc.resp, back)
		}
		if tc.wantKey && back.DropModule != tc.resp.DropModule {
			t.Fatalf("round trip lost drop module: %+v -> %+v", tc.resp, back)
		}
	}
}
