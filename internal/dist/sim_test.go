package dist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// The distributed-simulation differential harness is the cross-host half of
// determinism invariant #4: one simulation split across N lane-group
// PROCESSES — hub plus spokes over real loopback TCP, through the framed
// binary exchange codec — must be gob byte-identical to the same config run in one
// process, on every replica. It also proves the failure contract: a lane
// group disconnecting mid-run aborts the whole session loudly on every
// group, never a hang and never a silently divergent result.

// simCase is one corpus entry; Groups in the matrix are skipped when they
// exceed the app's module count (a group per module is the finest split).
type simCase struct {
	name string
	cfg  simgpu.Config
}

func simTrace(kind trace.Kind, rate float64, seed int64) *trace.Trace {
	return trace.MustGenerate(trace.Config{Kind: kind, Duration: 6 * time.Second, PeakRate: rate, Seed: seed})
}

// simCorpus covers every app shape (three chains and both DAG variants —
// cross-group fan-out/merge traffic), bursty and smooth traces, two policy
// families, injected failures with the scaler on, and probes.
// (gm-azure-sharded is named for the shard count its hub set while the
// engine had a shard pool.)
func simCorpus() []simCase {
	return []simCase{
		{"tm-wiki-pard", simgpu.Config{
			Spec: pipeline.TM(), PolicyName: "pard",
			Trace: simTrace(trace.Wiki, 150, 1), Seed: 42,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"lv-tweet-nexus-probes", simgpu.Config{
			Spec: pipeline.LV(), PolicyName: "nexus",
			Trace: simTrace(trace.Tweet, 120, 2), Seed: 7,
			SyncPeriod: 200 * time.Millisecond,
			Probes:     simgpu.ProbeConfig{QueueDelay: true, LoadFactor: true, Decomposition: true},
		}},
		{"gm-azure-sharded", simgpu.Config{
			Spec: pipeline.GM(), PolicyName: "pard",
			Trace: simTrace(trace.Azure, 140, 3), Seed: 13,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"da-dag-pard", simgpu.Config{
			Spec: pipeline.DA(), PolicyName: "pard",
			Trace: simTrace(trace.Tweet, 100, 9), Seed: 5,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"da-dyn-clipper", simgpu.Config{
			Spec: pipeline.DADynamic(0.5), PolicyName: "clipper++",
			Trace: simTrace(trace.Steady, 110, 4), Seed: 21,
			SyncPeriod: 200 * time.Millisecond,
		}},
		{"lv-failures-scaling", simgpu.Config{
			Spec: pipeline.LV(), PolicyName: "pard",
			Trace: simTrace(trace.Steady, 150, 5), Seed: 11,
			SyncPeriod: 200 * time.Millisecond,
			Failures: []simgpu.Failure{
				{At: 2 * time.Second, Module: 1, Count: 1},
				{At: 4 * time.Second, Module: 0, Count: 2},
			},
		}},
	}
}

func encodeSimResult(t *testing.T, res *simgpu.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runOverLoopback executes cfg as `groups` processes-worth of lane groups
// over loopback TCP: the hub in this goroutine, each spoke in its own, as
// cross-host deployments run them minus the physical network. It returns
// the hub's result plus every spoke's.
func runOverLoopback(t *testing.T, cfg simgpu.Config, groups int, opts SimOptions) (*simgpu.Result, []*simgpu.Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	spokes := groups - 1
	type spokeOut struct {
		res *simgpu.Result
		err error
	}
	outs := make(chan spokeOut, spokes)
	for i := 0; i < spokes; i++ {
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				outs <- spokeOut{err: err}
				return
			}
			res, err := ServeSim(conn, opts)
			outs <- spokeOut{res: res, err: err}
		}()
	}
	conns := make([]net.Conn, spokes)
	for i := range conns {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	hubRes, hubErr := RunSimDistributed(cfg, conns, opts)
	var spokeRes []*simgpu.Result
	for i := 0; i < spokes; i++ {
		select {
		case o := <-outs:
			if o.err != nil && hubErr == nil {
				hubErr = fmt.Errorf("spoke failed while hub succeeded: %w", o.err)
			}
			spokeRes = append(spokeRes, o.res)
		case <-time.After(60 * time.Second):
			t.Fatal("spoke never exited: the abort contract is broken")
		}
	}
	return hubRes, spokeRes, hubErr
}

func TestSimDistributedDifferential(t *testing.T) {
	corpus := simCorpus()
	groupCounts := []int{2, 4}
	if testing.Short() {
		// The CI race-short pass keeps the demanding shapes: DAG traffic
		// and failures+scaling, at one split. The dedicated differential
		// step runs the full matrix.
		corpus = []simCase{corpus[3], corpus[5]}
		groupCounts = []int{2}
	}
	opts := SimOptions{exchangeTimeout: 30 * time.Second}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			baseline, err := simgpu.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeSimResult(t, baseline)
			for _, groups := range groupCounts {
				if groups > c.cfg.Spec.N() {
					continue
				}
				t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
					hubRes, spokeRes, err := runOverLoopback(t, c.cfg, groups, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := encodeSimResult(t, hubRes); !bytes.Equal(want, got) {
						t.Fatalf("hub result diverged from single-process run (%d vs %d encoded bytes)\n single: %+v\n dist:   %+v",
							len(got), len(want), baseline.Summary, hubRes.Summary)
					}
					for i, res := range spokeRes {
						if got := encodeSimResult(t, res); !bytes.Equal(want, got) {
							t.Fatalf("spoke %d result diverged from single-process run", i+1)
						}
					}
				})
			}
		})
	}
}

// dropConn injects a mid-run disconnect: after `limit` reads it abruptly
// closes the underlying connection, exactly as a crashed lane-group host
// would look to its peers.
type dropConn struct {
	net.Conn
	mu    sync.Mutex
	reads int
	limit int
}

var errInjectedSimDrop = errors.New("injected mid-run lane-group disconnect")

func (c *dropConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	dead := c.reads > c.limit
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errInjectedSimDrop
	}
	return c.Conn.Read(p)
}

// TestSimDistributedDisconnectAborts proves the failure half of invariant
// #5's cross-host contract: when one lane group vanishes mid-run, the hub
// and every surviving spoke abort with an error — bounded by the exchange
// deadline, never a hang, and never a partial result presented as complete.
func TestSimDistributedDisconnectAborts(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Tweet, 120, 6), Seed: 3,
		SyncPeriod: 200 * time.Millisecond,
	}
	opts := SimOptions{exchangeTimeout: 20 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	spokeErrs := make(chan error, 2)
	// Spoke 1 is healthy; spoke 2 drops its connection a fixed number of
	// frames in — deterministically mid-run (a run is thousands of
	// exchanges).
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			spokeErrs <- err
			return
		}
		_, err = ServeSim(conn, opts)
		spokeErrs <- err
	}()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			spokeErrs <- err
			return
		}
		_, err = ServeSim(&dropConn{Conn: conn, limit: 120}, opts)
		spokeErrs <- err
	}()
	conns := make([]net.Conn, 2)
	for i := range conns {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	res, err := RunSimDistributed(cfg, conns, opts)
	if err == nil {
		t.Fatalf("hub returned a result (%+v) despite a lane group disconnecting mid-run", res.Summary)
	}
	for i := 0; i < 2; i++ {
		select {
		case serr := <-spokeErrs:
			if serr == nil {
				t.Fatal("a spoke returned a result despite the aborted session")
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a spoke hung instead of aborting after the disconnect")
		}
	}
}

// TestServeSimRefusals pins the spoke-side handshake gates: protocol
// version skew, profile-library skew, an out-of-range group assignment, a
// sweep hello and a job that cannot run are refused with an ack that says
// why — one a gob hub of version 5 or older cannot decode, and fails on
// cleanly. A spoke builds its lane group before it accepts, so no bad job
// reaches a running simulation, and neither end panics.
func TestServeSimRefusals(t *testing.T) {
	job := jobFromConfig(simgpu.Config{Spec: pipeline.LV(), Trace: simTrace(trace.Steady, 50, 1)})
	fp := profile.DefaultLibrary().Fingerprint()
	type refusal struct {
		name  string
		hello Hello
		want  string
	}
	cases := []refusal{
		{"version-skew", Hello{Proto: ProtoVersion + 1, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// A v11 peer's PARD estimates draw from a lifetime batch-wait
		// sample.
		{"v11-peer", Hello{Proto: 11, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// A v10 peer's board rows carry one byte more, and its PARD
		// estimates draw differently.
		{"v10-peer", Hello{Proto: 10, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// A v9 peer's sweep units and results are gob.
		{"v9-peer", Hello{Proto: 9, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// A v8 peer's sweep results carry a collector of another layout.
		{"v8-peer", Hello{Proto: 8, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// A v6 or v7 hub's binary hello carries a job of another layout.
		{"v7-peer", Hello{Proto: 7, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		{"v6-peer", Hello{Proto: 6, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		// Hubs of versions 3 to 5 open with a gob hello.
		{"v5-peer", Hello{Proto: 5, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		{"v4-peer", Hello{Proto: 4, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		{"v3-peer", Hello{Proto: 3, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, "version mismatch"},
		{"library-skew", Hello{Proto: ProtoVersion, LibraryFP: fp ^ 1, Groups: 2, Group: 1, Job: &job}, "library mismatch"},
		{"group-out-of-range", Hello{Proto: ProtoVersion, LibraryFP: fp, Groups: 2, Group: 2, Job: &job}, "out of range"},
		{"sweep-hello", Hello{Proto: ProtoVersion, LibraryFP: fp, BaseSeed: 3, TraceDuration: 10 * time.Second}, "not sweep units"},
	}
	for _, bj := range badJobs() {
		job := jobFromConfig(bj.cfg)
		cases = append(cases, refusal{bj.name, Hello{Proto: ProtoVersion, LibraryFP: fp, Groups: 2, Group: 1, Job: &job}, bj.field})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hubSide, spokeSide := net.Pipe()
			defer hubSide.Close()
			done := make(chan error, 1)
			go func() {
				_, err := ServeSim(spokeSide, SimOptions{})
				done <- err
			}()
			f := newFramed(hubSide)
			if err := peerHello(f, tc.hello); err != nil {
				t.Fatal(err)
			}
			checkRefusalAck(t, f, tc.hello.Proto, tc.want)
			err := within(t, "the spoke", done)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("spoke error = %v, want mention of %q", err, tc.want)
			}
			if n := strings.Count(err.Error(), "dist:"); n != 1 {
				t.Fatalf("error carries %d dist: prefixes, want one: %v", n, err)
			}
		})
	}

	// The opener's view of the last row: a coordinator that dials a
	// simulation-only peer reports the peer's reason.
	t.Run("coordinator-sees-reason", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
		defer c.Close()
		coordSide, spokeSide := net.Pipe()
		go ServeSim(spokeSide, SimOptions{})
		if err := c.AddConn(coordSide); err == nil || !strings.Contains(err.Error(), "not sweep units") {
			t.Fatalf("AddConn against a ServeSim peer: %v, want its refusal reason", err)
		}
	})
	// And a hub's view of a job its spoke refused: the field to blame.
	t.Run("hub-sees-reason", func(t *testing.T) {
		for _, bj := range badJobs() {
			hubSide, spokeSide := net.Pipe()
			go ServeSim(spokeSide, SimOptions{})
			if _, err := RunSimDistributed(bj.cfg, []net.Conn{hubSide}, SimOptions{}); err == nil || !strings.Contains(err.Error(), "peer refused") || !strings.Contains(err.Error(), bj.field) {
				t.Errorf("%s: hub error = %v, want the spoke's refusal naming %s", bj.name, err, bj.field)
			}
		}
	})
}

// badJob is a simulation job whose values once panicked the spoke serving it
// inside simgpu.Run, with the field its refusal must name.
type badJob struct {
	name, field string
	cfg         simgpu.Config
}

func badJobs() []badJob {
	base := func(mod func(*simgpu.Config)) simgpu.Config {
		cfg := simgpu.Config{Spec: pipeline.TM(), Trace: simTrace(trace.Steady, 50, 1)}
		mod(&cfg)
		return cfg
	}
	return []badJob{
		{"fixed-workers-negative", "FixedWorkers", base(func(c *simgpu.Config) { c.FixedWorkers = []int{-1, 1, 1} })},
		{"fixed-workers-zero", "FixedWorkers", base(func(c *simgpu.Config) { c.FixedWorkers = []int{1, 0, 1} })},
		{"fixed-workers-past-limit", "FixedWorkers", base(func(c *simgpu.Config) { c.FixedWorkers = []int{1, 1, sched.PoolLimit + 1} })},
		{"lambda-above-one", "Lambda", base(func(c *simgpu.Config) { c.Lambda = 5 })},
	}
}

// TestSimLockstepSkewAborts proves the hub refuses a diverged replica: a
// spoke whose first exchange arrives with a skewed sequence number kills
// the session with a lockstep error instead of merging its contribution.
func TestSimLockstepSkewAborts(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Steady, 60, 2), Seed: 1,
		SyncPeriod: 200 * time.Millisecond,
	}
	hubSide, spokeSide := net.Pipe()
	go func() {
		f := newFramed(spokeSide)
		h, err := recvHello(f, 0)
		if err != nil || sendAck(f, HelloAck{Proto: ProtoVersion, LibraryFP: h.LibraryFP}) != nil {
			return
		}
		// A replica that lost count: wrong sequence number on round one.
		skewed := appendExchangeHeader(make([]byte, frameHeaderLen), 999, simKindStep, 1)
		f.writeFrame(appendStep(skewed, sched.StepMsg{Group: 1}))
	}()
	_, err := RunSimDistributed(cfg, []net.Conn{hubSide}, SimOptions{exchangeTimeout: 20 * time.Second})
	if err == nil {
		t.Fatal("hub merged an out-of-lockstep contribution")
	}
	if !strings.Contains(err.Error(), "lockstep divergence") {
		t.Fatalf("want a lockstep divergence error, got: %v", err)
	}
}

// TestRunSimDistributedRefusesPeerVersion is the hub's half of the version
// gate: a spoke acking with another protocol version ends the session before
// any exchange, on both sides. A spoke of version 5 or older never acks: its
// gob decoder cannot read the hello, and it hangs up.
func TestRunSimDistributedRefusesPeerVersion(t *testing.T) {
	cfg := simgpu.Config{Spec: pipeline.LV(), Trace: simTrace(trace.Steady, 50, 1)}
	for _, peer := range []int{ProtoVersion + 1, 11, 10, 9, 8, 7, 6, 5, 4, 3} {
		t.Run(peerName(peer), func(t *testing.T) {
			hubSide, spokeSide := net.Pipe()
			spokeDone := make(chan error, 1)
			go func() {
				if err := peerServer(spokeSide, peer, 5*time.Second); err != nil {
					spokeDone <- err
					return
				}
				// The hub must hang up rather than start exchanging.
				_, err := newFramed(spokeSide).readFrame(5 * time.Second)
				spokeDone <- err
			}()
			_, err := RunSimDistributed(cfg, []net.Conn{hubSide}, SimOptions{handshakeTimeout: 5 * time.Second})
			want := "version mismatch"
			if peer <= lastGobProto {
				want = "handshake: EOF"
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("hub error = %v, want %q", err, want)
			}
			if serr := within(t, "the spoke", spokeDone); serr == nil {
				t.Fatal("the hub kept the session open after refusing the peer's version")
			}
		})
	}
}

// TestRefusedHandshakeReleasesEverySpoke: RunSimDistributed owns every
// connection it is handed. When the spoke of lane group 1 refuses the session
// (library skew), the spoke of lane group 2 — whose handshake never began —
// must be released at once, not left to its own handshake deadline.
func TestRefusedHandshakeReleasesEverySpoke(t *testing.T) {
	scaled, err := profile.DefaultLibrary().Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simgpu.Config{Spec: pipeline.LV(), Lib: scaled, Trace: simTrace(trace.Steady, 50, 1)}
	opts := SimOptions{handshakeTimeout: 5 * time.Second}
	hub1, spoke1 := net.Pipe()
	hub2, spoke2 := net.Pipe()
	go ServeSim(spoke1, opts)
	released := make(chan error, 1)
	go func() {
		_, err := ServeSim(spoke2, opts)
		released <- err
	}()
	_, err = RunSimDistributed(cfg, []net.Conn{hub1, hub2}, opts)
	if err == nil || !strings.Contains(err.Error(), "library mismatch") || !strings.Contains(err.Error(), "lane group 1") {
		t.Fatalf("hub error = %v, want lane group 1's library mismatch", err)
	}
	if n := strings.Count(err.Error(), "dist:"); n != 1 {
		t.Fatalf("error carries %d dist: prefixes, want one: %v", n, err)
	}
	select {
	case err := <-released:
		if err == nil {
			t.Fatal("the spoke behind the refusing one served a session")
		}
	case <-time.After(time.Second):
		t.Fatal("the spoke behind the refusing one was left waiting for a hub that gave up")
	}
}

// TestSimSessionCountersLogged pins the session's observability: both ends
// log one line of counters when the session closes, the run made exactly one
// step exchange (the opening rendezvous), and the two ends of the one
// connection agree on what crossed it.
func TestSimSessionCountersLogged(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Steady, 60, 2), Seed: 1,
		SyncPeriod: 200 * time.Millisecond,
	}
	var mu sync.Mutex
	var lines []string
	opts := SimOptions{exchangeTimeout: 30 * time.Second, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	if _, _, err := runOverLoopback(t, cfg, 2, opts); err != nil {
		t.Fatal(err)
	}
	var hub, spoke string
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "dist: sim session closed: lane group 0/2: "); ok {
			hub = rest
		}
		if rest, ok := strings.CutPrefix(l, "dist: sim session closed: lane group 1/2: "); ok {
			spoke = rest
		}
	}
	if hub == "" || spoke == "" {
		t.Fatalf("missing a session-close line in %q", lines)
	}
	var h, s struct{ step, barrier, board, scale, finish, txF, txB, rxF, rxB uint64 }
	const layout = "exchanges step=%d barrier=%d board=%d scale=%d finish=%d; tx %d frames %d B; rx %d frames %d B;"
	if _, err := fmt.Sscanf(hub, layout, &h.step, &h.barrier, &h.board, &h.scale, &h.finish, &h.txF, &h.txB, &h.rxF, &h.rxB); err != nil {
		t.Fatalf("hub line %q: %v", hub, err)
	}
	if _, err := fmt.Sscanf(spoke, layout, &s.step, &s.barrier, &s.board, &s.scale, &s.finish, &s.txF, &s.txB, &s.rxF, &s.rxB); err != nil {
		t.Fatalf("spoke line %q: %v", spoke, err)
	}
	if h.step != 1 || h.finish != 1 || h.barrier < 100 || h.board == 0 {
		t.Fatalf("hub exchanges %+v: want one step, one finish, the run's barriers and boards", h)
	}
	if h.step != s.step || h.barrier != s.barrier || h.board != s.board || h.scale != s.scale || h.finish != s.finish {
		t.Fatalf("ends disagree on the exchanges: hub %+v, spoke %+v", h, s)
	}
	total := h.step + h.barrier + h.board + h.scale + h.finish
	if h.txF != total || h.rxF != total || h.txF != s.rxF || h.txB != s.rxB || h.rxF != s.txF || h.rxB != s.txB {
		t.Fatalf("ends disagree on the traffic (%d exchanges): hub %+v, spoke %+v", total, h, s)
	}
	if !strings.Contains(hub, "blocked in read") {
		t.Fatalf("hub line %q does not report the read wait", hub)
	}
}

// TestSimJobCarriesEveryConfigField: a spoke runs the configuration its
// SimJob carries, so a simgpu.Config field the job dropped would silently run
// every spoke on that field's default. Every field travels — same name, same
// type, through both copies — unless it is kept out here with a reason; and
// the job carries nothing the configuration no longer has.
func TestSimJobCarriesEveryConfigField(t *testing.T) {
	kept := map[string]string{
		"Lib":    "fingerprint-checked at the handshake instead",
		"Shards": "retired: it changes nothing (simgpu.Config.Shards)",
		"Remote": "each replica is assigned its own lane group",
	}
	ct, jt := reflect.TypeOf(simgpu.Config{}), reflect.TypeOf(SimJob{})
	for name := range kept {
		if !hasField(ct, name) {
			t.Errorf("the keep list names %s, which simgpu.Config no longer has", name)
		}
	}
	for i := 0; i < jt.NumField(); i++ {
		if name := jt.Field(i).Name; !hasField(ct, name) {
			t.Errorf("SimJob.%s travels, but simgpu.Config has no such field", name)
		}
	}
	var cfg simgpu.Config
	cv := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if _, ok := kept[f.Name]; ok {
			continue
		}
		if jf, ok := jt.FieldByName(f.Name); !ok || jf.Type != f.Type {
			t.Errorf("simgpu.Config.%s (%v) does not travel in SimJob: carry it, or keep it out with a reason", f.Name, f.Type)
			continue
		}
		cv.Field(i).Set(nonZero(t, f.Type))
	}
	got := reflect.ValueOf(jobFromConfig(cfg).config())
	for i := 0; i < ct.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), cv.Field(i).Interface()) {
			t.Errorf("simgpu.Config.%s does not survive jobFromConfig and config", ct.Field(i).Name)
		}
	}
}

// hasField reports whether struct type typ has a field of that name.
func hasField(typ reflect.Type, name string) bool {
	_, ok := typ.FieldByName(name)
	return ok
}

// nonZero returns a value of type typ other than its zero value.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(typ, 1, 1))
	case reflect.Struct:
		v.Field(0).Set(nonZero(t, typ.Field(0).Type))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	default:
		t.Fatalf("no non-zero %v to carry", typ)
	}
	return v
}
