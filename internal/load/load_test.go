package load

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
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

// fakeInfer builds an httptest server whose /infer replies with the given
// handler — the generator's mechanics are tested without a real pipeline.
func fakeInfer(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func replyOutcome(w http.ResponseWriter, out server.Outcome) {
	json.NewEncoder(w).Encode(server.Response{Outcome: out, LatencyMS: 1})
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no target":           {},
		"open without trace":  {Target: "http://x", Mode: ModeOpen},
		"closed without caps": {Target: "http://x", Mode: ModeClosed},
		"unknown mode":        {Target: "http://x", Mode: "burst"},
		"bad think range":     {Target: "http://x", Mode: ModeClosed, Requests: 1, Think: ThinkTime{Min: -time.Second}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestClosedLoopCounts(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})
	rep, err := Run(Config{
		Target:   ts.URL,
		Mode:     ModeClosed,
		Conns:    4,
		Requests: 40,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 || rep.Answered != 40 || rep.Good != 40 {
		t.Fatalf("requests %d answered %d good %d, want 40 each", rep.Requests, rep.Answered, rep.Good)
	}
	if rep.Goodput <= 0 || rep.SLOAttainment != 1 {
		t.Fatalf("goodput %v attainment %v", rep.Goodput, rep.SLOAttainment)
	}
	offs := rep.Trace().Arrivals
	if len(offs) != 40 {
		t.Fatalf("recorded %d send offsets", len(offs))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatal("offsets not sorted")
		}
	}
	if rep.Latency.Max <= 0 || rep.Latency.P99 > rep.Latency.Max+0.001 {
		t.Fatalf("latency quantiles inconsistent: %+v", rep.Latency)
	}
}

func TestClosedLoopDurationCap(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})
	rep, err := Run(Config{
		Target:   ts.URL,
		Mode:     ModeClosed,
		Conns:    2,
		Duration: 100 * time.Millisecond,
		Think:    ThinkTime{Min: 5 * time.Millisecond, Max: 10 * time.Millisecond},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("duration-capped run sent nothing")
	}
	// 2 conns × ≥5ms think over 100ms: well under 100 requests.
	if rep.Requests > 100 {
		t.Fatalf("think time ignored: %d requests in 100ms", rep.Requests)
	}
}

func TestOpenLoopReplay(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})
	tr := trace.Fixed(200, 250*time.Millisecond)       // 50 arrivals over 250 ms
	rep, err := Run(Config{Target: ts.URL, Trace: tr}) // mode defaults to open
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeOpen {
		t.Fatalf("mode = %q", rep.Mode)
	}
	if rep.Requests != 50 || rep.Shed != 0 {
		t.Fatalf("requests %d shed %d, want 50/0", rep.Requests, rep.Shed)
	}
	if rep.Good != 50 {
		t.Fatalf("good %d, want 50", rep.Good)
	}
}

func TestOpenLoopShedsAtCap(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond) // slow server: in-flight piles up
		replyOutcome(w, server.OutcomeGood)
	})
	tr := trace.Fixed(1000, 20*time.Millisecond) // 20 arrivals in 20 ms
	rep, err := Run(Config{Target: ts.URL, Trace: tr, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("no arrivals shed despite MaxInFlight=2 and a slow server")
	}
	if rep.Requests+rep.Shed != 20 {
		t.Fatalf("requests %d + shed %d != 20 arrivals", rep.Requests, rep.Shed)
	}
}

func TestOutcomeClassification(t *testing.T) {
	var n atomic.Int64
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 1:
			replyOutcome(w, server.OutcomeGood)
		case 2:
			replyOutcome(w, server.OutcomeLate)
		case 3:
			replyOutcome(w, server.OutcomeDropped)
		default:
			http.Error(w, "stalled", http.StatusGatewayTimeout)
		}
	})
	rep, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 1, Requests: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good != 2 || rep.Late != 2 || rep.Dropped != 2 || rep.BadStatus != 2 {
		t.Fatalf("good %d late %d dropped %d badstatus %d, want 2 each",
			rep.Good, rep.Late, rep.Dropped, rep.BadStatus)
	}
	if rep.Answered != 6 {
		t.Fatalf("answered %d, want 6", rep.Answered)
	}
	if got := rep.SLOAttainment; got < 0.32 || got > 0.34 {
		t.Fatalf("attainment %v, want 2/6", got)
	}
}

func TestErrorsAndTimeouts(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		replyOutcome(w, server.OutcomeGood)
	})
	rep, err := Run(Config{
		Target:   ts.URL,
		Mode:     ModeClosed,
		Conns:    1,
		Requests: 2,
		Timeout:  20 * time.Millisecond,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts != 2 {
		t.Fatalf("timeouts %d, want 2 (errors %d)", rep.Timeouts, rep.Errors)
	}
	// Unreachable target: transport errors, not timeouts.
	rep, err = Run(Config{Target: "http://127.0.0.1:1", Mode: ModeClosed, Conns: 1, Requests: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 2 {
		t.Fatalf("errors %d, want 2 (timeouts %d)", rep.Errors, rep.Timeouts)
	}
}

func TestStreamRecords(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})
	var buf bytes.Buffer
	if _, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 2, Requests: 10, Stream: &buf, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("streamed %d lines, want 10", len(lines))
	}
	for _, ln := range lines {
		var rec streamRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", ln, err)
		}
		if rec.Outcome != "good" {
			t.Fatalf("stream outcome %q", rec.Outcome)
		}
	}
}

func TestThinkTimeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tt := ThinkTime{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		v := tt.sample(rng)
		if v < tt.Min || v > tt.Max {
			t.Fatalf("sample %v outside [%v, %v]", v, tt.Min, tt.Max)
		}
	}
	if v := (ThinkTime{Min: 7 * time.Millisecond}).sample(rng); v != 7*time.Millisecond {
		t.Fatalf("fixed think sampled %v", v)
	}
}

// fastLib mirrors the server package's test library: a model quick enough
// that live runs take milliseconds.
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

// TestLiveVsSim is the end-to-end round trip: drive a real live server
// open-loop, then replay the recorded send offsets through the simulator
// twin and check both sides produced comparable goodput under matched load.
// The twin is built twice, from the deployment the server reports over HTTP
// and from the config the server was built from, and the two must agree.
func TestLiveVsSim(t *testing.T) {
	lib := fastLib(t)
	cfg := server.Config{
		Spec:       pipeline.Uniform("livetwin", 3, "fast", 150*time.Millisecond),
		Lib:        lib,
		PolicyName: "pard",
		Workers:    []int{2, 2, 2},
		SyncPeriod: 50 * time.Millisecond,
		Seed:       1,
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dep, err := server.FetchDeployment(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Lib.Fingerprint() != lib.Fingerprint() {
		t.Fatalf("library fingerprint %016x over HTTP, %016x on the server", dep.Lib.Fingerprint(), lib.Fingerprint())
	}
	tr := trace.Fixed(100, time.Second)
	rep, err := Run(Config{Target: ts.URL, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good == 0 || rep.Goodput <= 0 {
		t.Fatalf("live run produced no goodput: %+v", rep)
	}
	if rep.Answered != rep.Good+rep.Late+rep.Dropped {
		t.Fatalf("outcome split %d+%d+%d != answered %d", rep.Good, rep.Late, rep.Dropped, rep.Answered)
	}

	local, err := rep.CompareSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := rep.CompareSim(dep)
	if err != nil {
		t.Fatal(err)
	}
	if *cmp != *local {
		t.Fatalf("twin over HTTP %+v, in process %+v", *cmp, *local)
	}
	if cmp.Goodput <= 0 {
		t.Fatalf("sim twin produced no goodput: %+v", cmp)
	}
	if cmp.Total != int(rep.Requests) {
		t.Fatalf("sim replayed %d arrivals, live sent %d", cmp.Total, rep.Requests)
	}
	if rep.Sim != cmp {
		t.Fatal("comparison not attached to the report")
	}

	// The report must round-trip as a single clean JSON document with the
	// comparison embedded.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Sim == nil || back.Sim.Goodput != cmp.Goodput {
		t.Fatalf("JSON round trip lost the sim comparison: %+v", back.Sim)
	}

	var tbl strings.Builder
	rep.WriteTable(&tbl)
	for _, want := range []string{"goodput", "latency", "sim twin"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

func TestCompareSimNeedsOffsets(t *testing.T) {
	rep := &Report{}
	if rep.Trace() != nil {
		t.Fatal("an empty report has a trace")
	}
	if _, err := rep.CompareSim(server.Config{Spec: pipeline.TM()}); err == nil {
		t.Fatal("empty report accepted")
	}
}

func TestCompareSimPropagatesErrors(t *testing.T) {
	rep := &Report{sent: &trace.Trace{Arrivals: []time.Duration{0, time.Millisecond}, Duration: time.Second}}
	if _, err := rep.CompareSim(server.Config{}); err == nil {
		t.Fatal("nil spec accepted")
	}
}

// Example-style smoke for the table writer with failure lines present.
func TestWriteTableFailureLines(t *testing.T) {
	rep := &Report{Mode: ModeOpen, Target: "http://x", Shed: 1, Timeouts: 2}
	var b strings.Builder
	rep.WriteTable(&b)
	out := b.String()
	if !strings.Contains(out, "shed 1") || !strings.Contains(out, "timeouts 2") {
		t.Fatalf("table missing generator/failure lines:\n%s", out)
	}
}

// TestReplyOverBound pins the bounded reply read: a 200 reply longer than
// maxReply — here a well-formed reply padded with whitespace, which a
// streaming JSON decoder would have accepted — is a counted protocol error,
// and the generator never buffers more than the bound.
func TestReplyOverBound(t *testing.T) {
	ts := fakeInfer(t, func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
		w.Write(bytes.Repeat([]byte{' '}, 2*maxReply))
	})
	var buf bytes.Buffer
	rep, err := Run(Config{Target: ts.URL, Mode: ModeClosed, Conns: 1, Requests: 3, Stream: &buf, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 3 || rep.Answered != 0 {
		t.Fatalf("errors %d answered %d, want 3/0", rep.Errors, rep.Answered)
	}
	if !strings.Contains(buf.String(), "longer than") {
		t.Fatalf("stream does not name the bound:\n%s", buf.String())
	}
}

// handlerTransport serves each request in process with a handler, so a
// reply takes microseconds and no connection is ever dialed.
type handlerTransport http.HandlerFunc

func (h handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec.Result(), nil
}

// TestOpenLoopTimedFromDue pins the coordinated-omission fix: an open-loop
// request is timed from the instant the trace says it is due, not from when
// the generator got round to sending it. All 2 000 arrivals are due at
// offset 0 and an in-process handler answers each at once, so most leave
// well after they were due and come back within microseconds: each record's
// latency must still cover its own send offset.
func TestOpenLoopTimedFromDue(t *testing.T) {
	client := &http.Client{Transport: handlerTransport(func(w http.ResponseWriter, r *http.Request) {
		replyOutcome(w, server.OutcomeGood)
	})}
	tr := &trace.Trace{Name: "burst", Arrivals: make([]time.Duration, 2000), Duration: time.Second}
	var buf bytes.Buffer
	rep, err := Run(Config{Target: "http://pard.invalid", Trace: tr, Client: client, Stream: &buf, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good != 2000 {
		t.Fatalf("%d of 2000 good: %+v", rep.Good, rep)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for ; dec.More(); n++ {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.LatencyMS < rec.OffsetMS {
			t.Fatalf("record %d: latency %.3f ms < send offset %.3f ms: timed from the send, not from the due instant", n, rec.LatencyMS, rec.OffsetMS)
		}
	}
	if n != 2000 {
		t.Fatalf("streamed %d records", n)
	}
}

// TestAllocsReplyPath: what the generator itself does with a reply — read it
// into the sender's buffer, decode it and stream its record — allocates
// nothing.
func TestAllocsReplyPath(t *testing.T) {
	r := &run{enc: json.NewEncoder(io.Discard)}
	s := &sender{reply: make([]byte, maxReply+1)}
	reply := []byte(`{"id":42,"outcome":"good","latency_ms":1.25}` + "\n")
	var body bytes.Reader
	n := testing.AllocsPerRun(100, func() {
		body.Reset(reply)
		got, err := readReply(&body, s.reply)
		if err != nil {
			t.Fatal(err)
		}
		s.sr = server.Response{}
		if err := s.sr.UnmarshalJSON(got); err != nil || s.sr.Outcome != server.OutcomeGood {
			t.Fatalf("decoded %+v, %v", s.sr, err)
		}
		r.hist.Record(1250 * time.Microsecond)
		r.stream(time.Millisecond, 1250*time.Microsecond, string(s.sr.Outcome), nil)
	})
	if n != 0 {
		t.Fatalf("the reply path allocates %.1f per reply", n)
	}
}
