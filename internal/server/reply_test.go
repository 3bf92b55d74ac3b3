package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceEncode is the reply encoding the codec replaced: encoding/json on
// a struct whose drop_module is a pointer, omitted unless the outcome is
// "dropped", through json.NewEncoder (trailing newline included).
func referenceEncode(t testing.TB, r Response) []byte {
	t.Helper()
	type wire struct {
		ID         uint64  `json:"id"`
		Outcome    Outcome `json:"outcome"`
		LatencyMS  float64 `json:"latency_ms"`
		DropModule *int    `json:"drop_module,omitempty"`
	}
	w := wire{ID: r.ID, Outcome: r.Outcome, LatencyMS: r.LatencyMS}
	if r.Outcome == OutcomeDropped {
		w.DropModule = &r.DropModule
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(w); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// replyCases are the /infer reply bodies the server wrote before the codec,
// byte for byte: one per outcome, and the latencies at the edges of
// encoding/json's float format.
var replyCases = []struct {
	resp Response
	body string
}{
	{Response{ID: 7, Outcome: OutcomeGood, LatencyMS: 1.234}, `{"id":7,"outcome":"good","latency_ms":1.234}`},
	{Response{ID: 8, Outcome: OutcomeLate, LatencyMS: 151.5}, `{"id":8,"outcome":"late","latency_ms":151.5}`},
	{Response{ID: 9, Outcome: OutcomeDropped, LatencyMS: 2.5, DropModule: 0}, `{"id":9,"outcome":"dropped","latency_ms":2.5,"drop_module":0}`},
	{Response{ID: 10, Outcome: OutcomeDropped, LatencyMS: 3.75, DropModule: 2}, `{"id":10,"outcome":"dropped","latency_ms":3.75,"drop_module":2}`},
	{Response{ID: 11, Outcome: OutcomeDropped, DropModule: -1}, `{"id":11,"outcome":"dropped","latency_ms":0,"drop_module":-1}`},
	{Response{ID: 12, Outcome: OutcomeRejected}, `{"id":12,"outcome":"rejected","latency_ms":0}`},
	{Response{ID: 13, Outcome: OutcomeGood, LatencyMS: 0}, `{"id":13,"outcome":"good","latency_ms":0}`},
	{Response{ID: 14, Outcome: OutcomeGood, LatencyMS: 0.001}, `{"id":14,"outcome":"good","latency_ms":0.001}`},
	{Response{ID: 15, Outcome: OutcomeGood, LatencyMS: 1e-7}, `{"id":15,"outcome":"good","latency_ms":1e-7}`},
	{Response{ID: 16, Outcome: OutcomeGood, LatencyMS: 1e21}, `{"id":16,"outcome":"good","latency_ms":1e+21}`},
}

// TestReplyBytes pins the reply codec to the bytes encoding/json wrote: the
// handler's body (appendResponse plus a newline), json.Marshal and
// json.NewEncoder on a Response, and the reference encoding all agree, and
// every body decodes back to its Response.
func TestReplyBytes(t *testing.T) {
	for _, c := range replyCases {
		want := c.body + "\n"
		if got := string(append(appendResponse(nil, c.resp), '\n')); got != want {
			t.Errorf("%+v: appendResponse wrote %q, want %q", c.resp, got, want)
		}
		if got := string(referenceEncode(t, c.resp)); got != want {
			t.Errorf("%+v: reference encoding %q, want %q", c.resp, got, want)
		}
		raw, err := json.Marshal(c.resp)
		if err != nil || string(raw) != c.body {
			t.Errorf("%+v: json.Marshal = %q, %v; want %q", c.resp, raw, err, c.body)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(c.resp); err != nil || enc.String() != want {
			t.Errorf("%+v: json.Encoder wrote %q, %v; want %q", c.resp, enc.String(), err, want)
		}
		var back Response
		if err := back.UnmarshalJSON([]byte(want)); err != nil || back != c.resp {
			t.Errorf("%q decoded to %+v, %v; want %+v", want, back, err, c.resp)
		}
	}
	// Outcome strings are escaped as encoding/json escapes them.
	odd := Response{ID: math.MaxUint64, Outcome: "<a&b>\xe2\x80\xa8\xff\"\\\n\x01\x7f", LatencyMS: -0.5}
	if got, want := append(appendResponse(nil, odd), '\n'), referenceEncode(t, odd); !bytes.Equal(got, want) {
		t.Errorf("odd outcome: appendResponse wrote %q, want %q", got, want)
	}
	if _, err := json.Marshal(Response{LatencyMS: math.NaN()}); err == nil {
		t.Error("a NaN latency marshaled")
	}
}

// TestInferReplyBytes pins the bytes the handler itself writes: a served
// request, a rejection at the in-flight bound (429) and a request
// that arrives after Stop (dropped, module -1), each the reference encoding
// of the reply with a JSON Content-Type.
func TestInferReplyBytes(t *testing.T) {
	infer := func(t *testing.T, s *Server, status int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
		if rec.Code != status {
			t.Fatalf("POST /infer answered %d, want %d: %q", rec.Code, status, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		return rec.Body.Bytes()
	}
	t.Run("served", func(t *testing.T) {
		s := fastServer(t, "pard")
		s.Start()
		defer s.Stop()
		body := infer(t, s, http.StatusOK)
		var r Response
		if err := json.Unmarshal(body, &r); err != nil || r.Outcome != OutcomeGood {
			t.Fatalf("body %q decoded to %+v, %v", body, r, err)
		}
		if want := referenceEncode(t, r); !bytes.Equal(body, want) {
			t.Fatalf("body %q, reference %q", body, want)
		}
	})
	t.Run("rejected", func(t *testing.T) {
		s, _ := admissionServer(t, time.Second, 1)
		s.Start()
		defer s.Stop()
		s.Submit() // holds the one slot
		if got, want := string(infer(t, s, http.StatusTooManyRequests)), `{"id":1,"outcome":"rejected","latency_ms":0}`+"\n"; got != want {
			t.Fatalf("429 body %q, want %q", got, want)
		}
	})
	t.Run("after-stop", func(t *testing.T) {
		s := fastServer(t, "pard")
		s.Start()
		s.Stop()
		if got, want := string(infer(t, s, http.StatusOK)), `{"id":0,"outcome":"dropped","latency_ms":0,"drop_module":-1}`+"\n"; got != want {
			t.Fatalf("body %q, want %q", got, want)
		}
	})
}

// TestInferStallTimerReuse sends requests one after another through
// handlers that share pooled stall timers, half of them stalled until the
// timer fires: a timer that fired for one request must never cut the next
// one short.
func TestInferStallTimerReuse(t *testing.T) {
	stalled, _ := manualServer(t, 2*time.Millisecond) // backstop at 20 ms, never resolves
	stalled.Start()
	defer stalled.Stop()
	live := fastServer(t, "pard")
	live.Start()
	defer live.Stop()
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		stalled.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("stalled request %d answered %d", i, rec.Code)
		}
		rec = httptest.NewRecorder()
		live.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d after a stall answered %d: %q", i, rec.Code, rec.Body.String())
		}
	}
}

// TestAllocsReplyCodec: encoding a reply into a reused buffer and decoding
// the server's own bytes allocate nothing.
func TestAllocsReplyCodec(t *testing.T) {
	var buf []byte
	var back Response
	for _, c := range replyCases {
		buf = append(appendResponse(buf[:0], c.resp), '\n')
		if n := testing.AllocsPerRun(100, func() { buf = append(appendResponse(buf[:0], c.resp), '\n') }); n != 0 {
			t.Errorf("encoding %+v allocates %.1f", c.resp, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := back.UnmarshalJSON(buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decoding %q allocates %.1f", buf, n)
		}
	}
}

// FuzzResponse checks the reply codec against encoding/json. On any input,
// UnmarshalJSON must not panic and must leave the same fields and the same
// success as encoding/json decoding into the method-free wire struct. For
// any response with a finite latency, appendResponse must write the
// reference encoding, and decoding that must give the response back
// (drop_module only for drops; invalid UTF-8 in an outcome is replaced,
// so those skip the round trip).
func FuzzResponse(f *testing.F) {
	for _, c := range replyCases {
		f.Add([]byte(c.body+"\n"), c.resp.ID, string(c.resp.Outcome), c.resp.LatencyMS, c.resp.DropModule)
	}
	for _, in := range []string{
		`{"ID":1,"Outcome":"good","LATENCY_MS":2}`,
		`{"outcome":"dropped","id":3,"latency_ms":1}`,
		`{"id":1,"outcome":"good","latency_ms":1,"drop_module":null}`,
		`{"id":01,"outcome":"good","latency_ms":1}`,
		`{"id":1,"outcome":"good","latency_ms":1e400}`,
		`{"id":-1,"outcome":"good","latency_ms":1}`,
		`{"id":1,"outcome":"good","latency_ms":1.}`,
		`{"id":1,"outcome":"good","latency_ms":1,"drop_module":2.5}`,
		`{"id":1,"outcome":"good","latency_ms":1} x`,
		`{"id":1,"outcome":"good","latency_ms":1}`,
		`{"id":1,"outcome":"mystery","latency_ms":1,"extra":[1,{}]}`,
		`null`, ``, `{`, `[]`,
	} {
		f.Add([]byte(in), uint64(0), "", 0.0, 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, id uint64, outcome string, lat float64, drop int) {
		var got Response
		var want responseWire
		gotErr := got.UnmarshalJSON(data)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) || got != Response(want) {
			t.Fatalf("%q: UnmarshalJSON gave %+v, %v; encoding/json %+v, %v", data, got, gotErr, want, wantErr)
		}

		r := Response{ID: id, Outcome: Outcome(outcome), LatencyMS: lat, DropModule: drop}
		if math.IsNaN(lat) || math.IsInf(lat, 0) {
			if _, err := r.MarshalJSON(); err == nil {
				t.Fatalf("%+v marshaled", r)
			}
			return
		}
		enc := append(appendResponse(nil, r), '\n')
		if ref := referenceEncode(t, r); !bytes.Equal(enc, ref) {
			t.Fatalf("%+v: appendResponse wrote %q, reference %q", r, enc, ref)
		}
		if !utf8.ValidString(outcome) {
			return
		}
		var back Response
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("%q: %v", enc, err)
		}
		if r.Outcome != OutcomeDropped {
			r.DropModule = 0
		}
		if back != r {
			t.Fatalf("%+v encoded as %q decoded to %+v", r, enc, back)
		}
	})
}
