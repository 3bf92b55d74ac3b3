package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/server"
	"pard/internal/trace"
)

// TestRejectedClassification pins the 429 path in doOne: the server's
// rejections count as rejected — not bad_status, not answered — and reach
// the JSONL stream as "rejected".
func TestRejectedClassification(t *testing.T) {
	var n atomic.Int64
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.Response{Outcome: server.OutcomeRejected})
			return
		}
		replyOutcome(w, server.OutcomeGood)
	})
	var buf bytes.Buffer
	rep, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 1, Requests: 10, Stream: &buf, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 5 || rep.Good != 5 {
		t.Fatalf("rejected %d good %d, want 5/5", rep.Rejected, rep.Good)
	}
	if rep.BadStatus != 0 {
		t.Fatalf("429s leaked into bad_status: %d", rep.BadStatus)
	}
	if rep.Answered != 5 {
		t.Fatalf("answered %d counts rejections, want 5", rep.Answered)
	}
	if rep.RejectRate != 0.5 {
		t.Fatalf("reject rate %v, want 0.5", rep.RejectRate)
	}
	streamed := 0
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec streamRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", ln, err)
		}
		if rec.Outcome == "rejected" {
			streamed++
		}
	}
	if streamed != 5 {
		t.Fatalf("streamed %d rejected records, want 5", streamed)
	}

	var tbl strings.Builder
	rep.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "rejected") {
		t.Fatalf("table missing the rejected line:\n%s", tbl.String())
	}
}

// TestUnknownOutcomeProtocolError pins the classification fix: a 200 reply
// whose outcome is empty or unknown is a protocol error — pre-fix it counted
// as both answered and dropped, skewing SLO attainment.
func TestUnknownOutcomeProtocolError(t *testing.T) {
	var n atomic.Int64
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 3 {
		case 1:
			replyOutcome(w, server.OutcomeGood)
		case 2:
			fmt.Fprintln(w, `{"id":1,"outcome":"","latency_ms":1}`)
		default:
			fmt.Fprintln(w, `{"id":2,"outcome":"mystery","latency_ms":1}`)
		}
	})
	rep, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 1, Requests: 9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 6 {
		t.Fatalf("errors %d, want 6 (empty + unknown outcomes)", rep.Errors)
	}
	if rep.Answered != 3 || rep.Good != 3 {
		t.Fatalf("answered %d good %d, want 3/3", rep.Answered, rep.Good)
	}
	if rep.Dropped != 0 {
		t.Fatalf("protocol errors leaked into dropped: %d", rep.Dropped)
	}
	if rep.SLOAttainment != 1 {
		t.Fatalf("attainment %v, want 1 (good over genuinely answered)", rep.SLOAttainment)
	}
}

// failAfter is an io.Writer that starts failing after n successful writes.
type failAfter struct {
	n     int
	wrote int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.wrote >= f.n {
		return 0, errors.New("disk full")
	}
	f.wrote++
	return len(p), nil
}

// TestStreamWriteErrors pins the stream-encoder fix: write failures are
// counted and the first one surfaces in the report instead of vanishing.
func TestStreamWriteErrors(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})
	rep, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 1, Requests: 10,
		Stream: &failAfter{n: 3}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamErrors != 7 {
		t.Fatalf("stream errors %d, want 7", rep.StreamErrors)
	}
	if !strings.Contains(rep.StreamError, "disk full") {
		t.Fatalf("first stream error %q not surfaced", rep.StreamError)
	}
	var tbl strings.Builder
	rep.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "disk full") {
		t.Fatalf("table missing the stream-failure line:\n%s", tbl.String())
	}
}

// slowLib profiles a deliberately slow model so a handful of workers
// saturate at ~100 req/s and the overload experiment needs only modest
// request counts.
func slowLib(t *testing.T) *profile.Library {
	t.Helper()
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{
		Name:     "slow",
		Alpha:    20 * time.Millisecond,
		Beta:     5 * time.Millisecond,
		MaxBatch: 4,
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

// overloadRun drives one live server at ~2.5× capacity and returns the
// report and the server's config: 3 slow modules, one worker each (≈100
// req/s pipeline capacity) against a 250 req/s fixed schedule. The naive
// policy never drops, so without an in-flight bound the queues absorb the
// whole overload.
func overloadRun(t *testing.T, maxInFlight int) (*Report, server.Config) {
	t.Helper()
	cfg := server.Config{
		Spec:        pipeline.Uniform("overload", 3, "slow", 300*time.Millisecond),
		Lib:         slowLib(t),
		PolicyName:  "naive",
		Workers:     []int{1, 1, 1},
		SyncPeriod:  50 * time.Millisecond,
		Seed:        1,
		MaxInFlight: maxInFlight,
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(Config{Target: ts.URL, Trace: trace.Fixed(250, time.Second), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep, cfg
}

// TestOverloadInFlightBound pins the in-flight bound's payoff under a policy
// that never drops: at ~2.5× capacity, naive without a bound buries the
// overload in its queues (requests go late or stall), while with one the
// excess is turned away at the door with 429s and the admitted share keeps
// meeting the SLO — goodput(bounded) ≥ goodput(unbounded), rejections
// flowing.
func TestOverloadInFlightBound(t *testing.T) {
	if testing.Short() {
		t.Skip("overload experiment runs seconds of wall-clock traffic")
	}
	off, _ := overloadRun(t, 0)
	on, _ := overloadRun(t, 16)

	if off.Rejected != 0 {
		t.Fatalf("unbounded server rejected %d requests", off.Rejected)
	}
	if on.Rejected == 0 {
		t.Fatal("bounded server rejected nothing at 2.5x capacity")
	}
	if on.Good == 0 || on.Goodput <= 0 {
		t.Fatalf("bounded server produced no goodput: %+v", on)
	}
	if on.Goodput < off.Goodput {
		t.Fatalf("the bound lost goodput: bounded %.1f/s < unbounded %.1f/s (bounded: good=%d rejected=%d; unbounded: good=%d late=%d bad=%d)",
			on.Goodput, off.Goodput, on.Good, on.Rejected, off.Good, off.Late, off.BadStatus)
	}
	t.Logf("overload 2.5x: goodput unbounded=%.1f/s bounded=%.1f/s, bounded rejected %d/%d (%.0f%%)",
		off.Goodput, on.Goodput, on.Rejected, on.Requests, 100*on.RejectRate)
}

// TestCompareSimSkipsRejected: a bounded server's twin replays only the sends
// that reached its core. At ~2.5× capacity behind an in-flight bound of 8,
// the sends answered 429 are left out of the report's trace, so the twin
// simulates Requests − Rejected arrivals and models the core behind the door.
func TestCompareSimSkipsRejected(t *testing.T) {
	rep, cfg := overloadRun(t, 8)
	if rep.Rejected == 0 {
		t.Fatal("bounded server rejected nothing at 2.5x capacity")
	}
	want := int(rep.Requests - rep.Rejected)
	if got := len(rep.Trace().Arrivals); got != want {
		t.Fatalf("trace holds %d arrivals, want %d sent − %d rejected = %d", got, rep.Requests, rep.Rejected, want)
	}
	cmp, err := rep.CompareSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Total != want {
		t.Fatalf("twin simulated %d requests, want %d sent − %d rejected = %d", cmp.Total, rep.Requests, rep.Rejected, want)
	}
}
