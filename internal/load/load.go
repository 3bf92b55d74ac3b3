// Package load is a wall-clock HTTP load generator for the live server: it
// replays internal/trace arrival processes (or runs closed-loop workers with
// think time) against POST /infer, classifies every reply with the server's
// own outcome taxonomy, and reports goodput, drop/late rates and HDR-style
// latency quantiles. Because it records the offsets it actually sent at, the
// same load — less the sends refused at the door with a 429 — can be
// replayed through the discrete-event simulator for a matched-load
// sim-vs-live comparison (CompareSim).
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pard/internal/server"
	"pard/internal/stats"
	"pard/internal/trace"
)

// Hist names the latency histogram for bench/'s probes; the one
// implementation is stats.Hist.
type Hist = stats.Hist

// Generation modes.
const (
	// ModeOpen replays a trace's arrival schedule regardless of how fast the
	// server answers (arrivals don't wait for completions — the paper's
	// workload model).
	ModeOpen = "open"
	// ModeClosed runs Conns workers that each wait for the previous reply
	// plus a think time before sending the next request.
	ModeClosed = "closed"
)

// ThinkTime is the closed-loop pause between a reply and the next request:
// uniform in [Min, Max] when Max > Min, else exactly Min.
type ThinkTime struct {
	Min time.Duration
	Max time.Duration
}

func (t ThinkTime) sample(rng *rand.Rand) time.Duration {
	if t.Max > t.Min {
		return t.Min + time.Duration(rng.Int63n(int64(t.Max-t.Min)+1))
	}
	return t.Min
}

// Config describes one load-generation run.
type Config struct {
	// Target is the server base URL (e.g. "http://127.0.0.1:8080").
	Target string
	// Mode is ModeOpen (default when Trace is set) or ModeClosed.
	Mode string
	// Trace supplies the open-loop arrival schedule.
	Trace *trace.Trace
	// Conns is the closed-loop worker count (default 4).
	Conns int
	// Requests caps the closed-loop total request count (0 = no cap).
	Requests int
	// Duration caps the closed-loop wall-clock run time (0 = no cap; one of
	// Requests/Duration must be set).
	Duration time.Duration
	// Think is the closed-loop think time.
	Think ThinkTime
	// Timeout bounds each HTTP request (default 30 s).
	Timeout time.Duration
	// MaxInFlight sheds open-loop arrivals when this many requests are
	// outstanding (0 = unlimited).
	MaxInFlight int
	// Seed drives the think-time RNG streams (one per worker).
	Seed int64
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Stream, when set, receives one JSON line per request as it completes.
	Stream io.Writer
}

func (c Config) withDefaults() (Config, error) {
	if c.Target == "" {
		return c, fmt.Errorf("load: config needs a target URL")
	}
	if c.Mode == "" {
		if c.Trace != nil {
			c.Mode = ModeOpen
		} else {
			c.Mode = ModeClosed
		}
	}
	switch c.Mode {
	case ModeOpen:
		if c.Trace == nil || c.Trace.Len() == 0 {
			return c, fmt.Errorf("load: open-loop mode needs a non-empty trace")
		}
	case ModeClosed:
		if c.Requests <= 0 && c.Duration <= 0 {
			return c, fmt.Errorf("load: closed-loop mode needs Requests or Duration")
		}
		if c.Conns <= 0 {
			c.Conns = 4
		}
	default:
		return c, fmt.Errorf("load: unknown mode %q (want %q or %q)", c.Mode, ModeOpen, ModeClosed)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Think.Min < 0 || c.Think.Max < c.Think.Min && c.Think.Max != 0 {
		return c, fmt.Errorf("load: think time [%v, %v] is not a range", c.Think.Min, c.Think.Max)
	}
	return c, nil
}

// Quantiles are client-observed latency quantiles in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// SimComparison is the matched-load simulator replay of a live run: the same
// arrival offsets the generator actually sent, run through the server's
// discrete-event twin (server.RunTwin). Sends the server's in-flight bound
// answered with a 429 never reached its core and are not replayed, so the
// twin models the core behind the door, and Total is Requests − Rejected.
type SimComparison struct {
	Goodput float64 `json:"goodput"`
	Good    int     `json:"good"`
	Late    int     `json:"late"`
	Dropped int     `json:"dropped"`
	Total   int     `json:"total"`
	// GoodputDeltaPct is 100·(live−sim)/sim — how far the wall-clock runtime
	// lands from its discrete-event twin under identical load.
	GoodputDeltaPct float64 `json:"goodput_delta_pct"`
}

// Report is the aggregate outcome of one run.
type Report struct {
	Mode       string  `json:"mode"`
	Target     string  `json:"target"`
	ElapsedSec float64 `json:"elapsed_sec"`

	// Requests counts attempted sends; Answered those with a well-formed
	// server reply. Good/Late/Dropped split Answered by server outcome.
	Requests uint64 `json:"requests"`
	Answered uint64 `json:"answered"`
	Good     uint64 `json:"good"`
	Late     uint64 `json:"late"`
	Dropped  uint64 `json:"dropped"`
	// Rejected counts 429 replies, the server's in-flight bound refusing a
	// request at the door: not answered, tracked apart from bad statuses.
	Rejected uint64 `json:"rejected"`
	// Shed counts open-loop arrivals not sent because MaxInFlight was
	// reached; LateDispatch those sent more than 2 ms behind schedule (the
	// generator itself falling behind, not the server).
	Shed         uint64 `json:"shed"`
	LateDispatch uint64 `json:"late_dispatch"`
	Timeouts     uint64 `json:"timeouts"`
	Errors       uint64 `json:"errors"`
	BadStatus    uint64 `json:"bad_status"`

	Goodput     float64 `json:"goodput"`      // good replies per second
	OfferedRate float64 `json:"offered_rate"` // attempted sends per second
	// SLOAttainment is Good/Answered: the server deems a reply "good" only
	// when it beat the pipeline SLO.
	SLOAttainment float64 `json:"slo_attainment"`
	// RejectRate is Rejected/Requests: the fraction of attempted sends the
	// server turned away with a 429.
	RejectRate float64 `json:"reject_rate"`

	// StreamErrors counts JSONL stream write failures (StreamError carries
	// the first one); pre-fix these were silently swallowed.
	StreamErrors uint64 `json:"stream_errors,omitempty"`
	StreamError  string `json:"stream_error,omitempty"`

	Latency Quantiles `json:"latency_ms"`

	Sim *SimComparison `json:"sim,omitempty"`

	sent *trace.Trace
}

// Trace returns the arrivals the generator actually sent, less those answered
// 429 (refused at the door, they never reached the core), sorted and lasting
// until 1 s after the last one: the trace CompareSim replays. It is nil when
// no such arrival was sent.
func (r *Report) Trace() *trace.Trace { return r.sent }

// streamRecord is one per-request line written to Config.Stream.
type streamRecord struct {
	OffsetMS  float64 `json:"offset_ms"`
	LatencyMS float64 `json:"latency_ms"`
	Outcome   string  `json:"outcome"`
	Error     string  `json:"error,omitempty"`
}

// lateDispatchSlack is how far behind schedule an open-loop send may run
// before it counts as a late dispatch.
const lateDispatchSlack = 2 * time.Millisecond

type run struct {
	cfg    Config
	client *http.Client
	start  time.Time
	// infer is the POST /infer request every sender copies: the URL is
	// built and parsed once per run.
	infer *http.Request
	// senders recycles the open loop's per-request state; a closed-loop
	// worker keeps one sender for its whole run.
	senders sync.Pool

	requests, answered        atomic.Uint64
	good, late, dropped       atomic.Uint64
	rejected                  atomic.Uint64
	shed, lateDispatch        atomic.Uint64
	timeouts, errs, badStatus atomic.Uint64
	inFlight                  atomic.Int64

	hist stats.Hist

	mu      sync.Mutex // guards offsets and the stream state
	offsets []time.Duration
	// enc is the one JSONL encoder for the whole run (built once in Run, not
	// per record), and rec the record it encodes, passed by pointer so that
	// no record is boxed; streamErr/streamErrs surface write failures
	// instead of swallowing them.
	enc        *json.Encoder
	rec        streamRecord
	streamErr  error
	streamErrs uint64
}

// maxReply bounds how much of one /infer reply the generator reads. The
// server's replies are under 100 bytes; a longer one is a protocol error,
// never an unbounded buffer.
const maxReply = 4 << 10

// errReplyTooLong is the protocol error for a reply over maxReply bytes.
var errReplyTooLong = fmt.Errorf("load: reply longer than %d bytes", maxReply)

// sender is the state one request in flight owns and the next request
// reuses once the reply has been read and its body closed, as net/http
// allows: the request (a POST with no body, so no Content-Type), the reply
// buffer and the decoded reply.
type sender struct {
	req   *http.Request
	reply []byte // maxReply+1 bytes: a reply that fills it is too long
	sr    server.Response
}

// newSender copies the run's request with a header map of its own, so no
// two requests in flight share one.
func (r *run) newSender() *sender {
	req := r.infer.WithContext(context.Background())
	req.Header = make(http.Header)
	return &sender{req: req, reply: make([]byte, maxReply+1)}
}

// Run executes one load-generation run and blocks until every request has
// resolved (or failed).
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	infer, err := http.NewRequest(http.MethodPost, cfg.Target+"/infer", nil)
	if err != nil {
		return nil, fmt.Errorf("load: target: %w", err)
	}
	r := &run{cfg: cfg, client: cfg.Client, infer: infer}
	r.senders.New = func() any { return r.newSender() }
	if r.client == nil {
		r.client = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.Stream != nil {
		r.enc = json.NewEncoder(cfg.Stream)
	}
	r.start = time.Now()
	switch cfg.Mode {
	case ModeOpen:
		r.runOpen()
	default:
		r.runClosed()
	}
	return r.report(time.Since(r.start)), nil
}

// runOpen replays the trace schedule: each arrival is dispatched at its
// offset whether or not earlier requests have finished, and its latency runs
// from that offset, not from the send, so a generator that falls behind
// schedule adds its lag to the latencies it reports instead of hiding it
// (coordinated omission). When MaxInFlight is hit the arrival is shed
// (counted, not sent) — the open-loop analogue of a full accept queue.
func (r *run) runOpen() {
	var wg sync.WaitGroup
	for _, at := range r.cfg.Trace.Arrivals {
		if sleep := at - time.Since(r.start); sleep > 0 {
			time.Sleep(sleep)
		}
		if time.Since(r.start)-at > lateDispatchSlack {
			r.lateDispatch.Add(1)
		}
		if r.cfg.MaxInFlight > 0 && r.inFlight.Load() >= int64(r.cfg.MaxInFlight) {
			r.shed.Add(1)
			continue
		}
		r.inFlight.Add(1)
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			defer r.inFlight.Add(-1)
			s := r.senders.Get().(*sender)
			r.doOne(s, due)
			r.senders.Put(s)
		}(r.start.Add(at))
	}
	wg.Wait()
}

// runClosed runs Conns synchronous workers, each pausing for a think time
// between requests (pgcheetah-style) and timing each request from its send.
// The run ends when the request cap or the duration cap is reached,
// whichever comes first.
func (r *run) runClosed() {
	ctx := context.Background()
	if r.cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Duration)
		defer cancel()
	}
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w)*7919))
			s := r.newSender()
			think := time.NewTimer(time.Hour)
			think.Stop()
			defer think.Stop()
			for {
				if r.cfg.Requests > 0 && issued.Add(1) > int64(r.cfg.Requests) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				r.doOne(s, time.Time{})
				if d := r.cfg.Think.sample(rng); d > 0 {
					think.Reset(d)
					select {
					case <-ctx.Done():
						return
					case <-think.C:
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// doOne sends one POST /infer with s, classifies the reply and records its
// latency, timed from due — the instant the request was meant to leave — or,
// when due is zero, from the send.
func (r *run) doOne(s *sender, due time.Time) {
	offset := time.Since(r.start)
	r.requests.Add(1)

	if due.IsZero() {
		due = time.Now()
	}
	resp, err := r.client.Do(s.req)
	lat := time.Since(due)
	if err != nil || resp.StatusCode != http.StatusTooManyRequests {
		// Every send that may have reached the core is replayed by the twin;
		// a 429 was turned away at the door and never did.
		r.mu.Lock()
		r.offsets = append(r.offsets, offset)
		r.mu.Unlock()
	}
	if err != nil {
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			r.timeouts.Add(1)
			r.stream(offset, lat, "timeout", err)
		} else {
			r.errs.Add(1)
			r.stream(offset, lat, "error", err)
		}
		return
	}
	body, err := readReply(resp.Body, s.reply)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// The server's in-flight bound turned the request away at the door:
		// a deliberate, well-formed refusal — not a generic bad status.
		r.rejected.Add(1)
		r.stream(offset, lat, string(server.OutcomeRejected), nil)
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.badStatus.Add(1)
		r.stream(offset, lat, fmt.Sprintf("http_%d", resp.StatusCode), nil)
		return
	}
	if err == nil {
		s.sr = server.Response{}
		err = s.sr.UnmarshalJSON(body)
	}
	if err != nil {
		r.errs.Add(1)
		r.stream(offset, lat, "error", err)
		return
	}
	switch s.sr.Outcome {
	case server.OutcomeGood:
		r.good.Add(1)
	case server.OutcomeLate:
		r.late.Add(1)
	case server.OutcomeDropped:
		r.dropped.Add(1)
	default:
		// A 200 reply with an empty or unknown outcome is a protocol error,
		// not an answer. (Pre-fix it counted as both answered and dropped,
		// skewing SLO attainment.)
		r.errs.Add(1)
		r.stream(offset, lat, "error", fmt.Errorf("load: 200 reply with unknown outcome %q", s.sr.Outcome))
		return
	}
	r.answered.Add(1)
	r.hist.Record(lat)
	r.stream(offset, lat, string(s.sr.Outcome), nil)
}

// readReply reads body to its end into buf and returns what it read, or
// errReplyTooLong once the reply fills buf.
func readReply(body io.Reader, buf []byte) ([]byte, error) {
	for n := 0; ; {
		m, err := body.Read(buf[n:])
		n += m
		switch {
		case n == len(buf):
			return nil, errReplyTooLong
		case err == io.EOF:
			return buf[:n], nil
		case err != nil:
			return nil, err
		}
	}
}

// stream writes one JSONL record per completed request when configured.
func (r *run) stream(offset, lat time.Duration, outcome string, err error) {
	if r.enc == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec = streamRecord{
		OffsetMS:  ms(offset),
		LatencyMS: ms(lat),
		Outcome:   outcome,
	}
	if err != nil {
		r.rec.Error = err.Error()
	}
	if werr := r.enc.Encode(&r.rec); werr != nil {
		r.streamErrs++
		if r.streamErr == nil {
			r.streamErr = werr
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (r *run) report(elapsed time.Duration) *Report {
	rep := &Report{
		Mode:         r.cfg.Mode,
		Target:       r.cfg.Target,
		ElapsedSec:   elapsed.Seconds(),
		Requests:     r.requests.Load(),
		Answered:     r.answered.Load(),
		Good:         r.good.Load(),
		Late:         r.late.Load(),
		Dropped:      r.dropped.Load(),
		Rejected:     r.rejected.Load(),
		Shed:         r.shed.Load(),
		LateDispatch: r.lateDispatch.Load(),
		Timeouts:     r.timeouts.Load(),
		Errors:       r.errs.Load(),
		BadStatus:    r.badStatus.Load(),
		Latency: Quantiles{
			P50: ms(r.hist.Quantile(0.50)),
			P90: ms(r.hist.Quantile(0.90)),
			P99: ms(r.hist.Quantile(0.99)),
			Max: ms(r.hist.Max()),
		},
	}
	if elapsed > 0 {
		rep.Goodput = float64(rep.Good) / elapsed.Seconds()
		rep.OfferedRate = float64(rep.Requests) / elapsed.Seconds()
	}
	if rep.Answered > 0 {
		rep.SLOAttainment = float64(rep.Good) / float64(rep.Answered)
	}
	if rep.Requests > 0 {
		rep.RejectRate = float64(rep.Rejected) / float64(rep.Requests)
	}
	r.mu.Lock()
	sent := slices.Clone(r.offsets)
	rep.StreamErrors = r.streamErrs
	if r.streamErr != nil {
		rep.StreamError = r.streamErr.Error()
	}
	r.mu.Unlock()
	if len(sent) > 0 {
		slices.Sort(sent)
		rep.sent = &trace.Trace{Name: "live-replay", Arrivals: sent, Duration: sent[len(sent)-1] + time.Second}
	}
	return rep
}

// CompareSim replays the report's recorded send offsets through the
// discrete-event twin of the deployment cfg describes (server.RunTwin) and
// attaches the resulting goodput comparison to the report. cfg is the config
// the server was built from, or the one server.FetchDeployment read from it.
func (r *Report) CompareSim(cfg server.Config) (*SimComparison, error) {
	if r.sent == nil {
		return nil, fmt.Errorf("load: report has no recorded send offsets to replay")
	}
	res, err := server.RunTwin(cfg, r.sent)
	if err != nil {
		return nil, err
	}
	sum := res.Summary
	cmp := &SimComparison{
		Goodput: sum.Goodput,
		Good:    sum.Good,
		Late:    sum.Late,
		Dropped: sum.Dropped,
		Total:   sum.Total,
	}
	if sum.Goodput > 0 {
		cmp.GoodputDeltaPct = 100 * (r.Goodput - sum.Goodput) / sum.Goodput
	}
	r.Sim = cmp
	return cmp, nil
}

// WriteJSON writes the report as one indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as a human-readable summary table.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "pard-load: %s %s, %.1fs\n", r.Mode, r.Target, r.ElapsedSec)
	fmt.Fprintf(w, "  requests   %8d   (%.1f/s offered)\n", r.Requests, r.OfferedRate)
	fmt.Fprintf(w, "  answered   %8d   good %d  late %d  dropped %d\n", r.Answered, r.Good, r.Late, r.Dropped)
	if r.Rejected > 0 {
		fmt.Fprintf(w, "  rejected   %8d   (429 at the in-flight bound, %.1f%% of requests)\n", r.Rejected, 100*r.RejectRate)
	}
	if r.Shed > 0 || r.LateDispatch > 0 {
		fmt.Fprintf(w, "  generator  shed %d  late-dispatch %d\n", r.Shed, r.LateDispatch)
	}
	if r.Timeouts > 0 || r.Errors > 0 || r.BadStatus > 0 {
		fmt.Fprintf(w, "  failures   timeouts %d  errors %d  bad-status %d\n", r.Timeouts, r.Errors, r.BadStatus)
	}
	if r.StreamErrors > 0 {
		fmt.Fprintf(w, "  stream     %d write failures (first: %s)\n", r.StreamErrors, r.StreamError)
	}
	fmt.Fprintf(w, "  goodput    %8.1f/s   SLO attainment %.1f%%\n", r.Goodput, 100*r.SLOAttainment)
	fmt.Fprintf(w, "  latency    p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max)
	if r.Sim != nil {
		fmt.Fprintf(w, "  sim twin   goodput %.1f/s  (live %+.1f%%)  good %d  late %d  dropped %d\n",
			r.Sim.Goodput, r.Sim.GoodputDeltaPct, r.Sim.Good, r.Sim.Late, r.Sim.Dropped)
	}
}
