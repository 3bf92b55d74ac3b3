package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// Transport-level fault injection, through the one read path both kinds of
// session share: a sweep (coordinator ↔ ServeConn) and a simulation
// (RunSimDistributed ↔ ServeSim) each run over connections that fragment,
// break or go silent, and must end byte-identical to the local run or in a
// clean error on both ends — never a hang, never a divergent result.
// (Duplicated and reordered messages are covered where they are detected, at
// the message level: TestSimLockstepSkewAborts, TestStaleEpochResultDropped.)

// fault describes what a faultConn does to the bytes its side writes.
type fault struct {
	frag  int  // > 0: writes leave in pieces of frag bytes, reads return at most frag
	cut   int  // > 0: the fault fires once this many bytes have been written
	stall bool // at cut, later bytes vanish silently instead of the connection closing
}

var errInjectedFault = errors.New("injected transport fault")

type faultConn struct {
	net.Conn
	fault

	mu      sync.Mutex
	written int
	fired   bool
}

func (f fault) wrap(conn net.Conn) *faultConn { return &faultConn{Conn: conn, fault: f} }

func (c *faultConn) Read(p []byte) (int, error) {
	if c.frag > 0 && len(p) > c.frag {
		p = p[:c.frag]
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if c.frag > 0 {
			n = min(n, c.frag)
		}
		if c.cut > 0 {
			if c.written >= c.cut {
				c.fired = true
				if c.stall {
					return total + len(p), nil
				}
				c.Conn.Close()
				return total, errInjectedFault
			}
			n = min(n, c.cut-c.written)
		}
		m, err := c.Conn.Write(p[:n])
		c.written += m
		total += m
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func (c *faultConn) didFire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// within fails the test if ch does not deliver in time: the "never a hang"
// half of every case below.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("%s hung", what)
		panic("unreachable")
	}
}

// faultCase is one row of the table both stacks run. The opener is the side
// that sends the hello (coordinator, hub), the server the side that acks. A
// cut that is not late lands inside the first frame its side writes, derived
// from that frame's encoded length — 2 bytes in, inside the length prefix, and
// 100 bytes into the hello or 50 into the ack, or the frame's middle if it is
// shorter — and must fail the handshake; a late one lands in the session's own
// traffic (a WorkUnit or UnitResult of the sweep, a barrier frame of the
// simulation), after a handshake that must have succeeded.
type faultCase struct {
	name           string
	opener, server fault
	late           bool
}

// timeouts returns a case's handshake and exchange timeouts: short for the
// one deadline a stall is there to trip, generous for the other, so a loaded
// box cannot trip that one first. A stalled handshake fails whatever the box
// does, so 200 ms will do; a run must reach the cut before an exchange of its
// own takes that long, so a late stall waits a second.
func (tc faultCase) timeouts() (handshake, exchange time.Duration) {
	handshake, exchange = 10*time.Second, 10*time.Second
	switch stall := tc.opener.stall || tc.server.stall; {
	case stall && tc.late:
		exchange = time.Second
	case stall:
		handshake = 200 * time.Millisecond
	}
	return handshake, exchange
}

// faulty reports whether the case breaks the connection at all; the
// fragmenting cases only make it awkward.
func (tc faultCase) faulty() bool { return tc.opener.cut+tc.server.cut > 0 }

// faultCases returns the table for a stack whose hello and ack frames are
// helloLen and ackLen bytes long, with late cuts at openerLate and serverLate.
func faultCases(helloLen, ackLen, openerLate, serverLate int) []faultCase {
	cases := []faultCase{
		{name: "fragment-3-5", opener: fault{frag: 3}, server: fault{frag: 5}},
		{name: "fragment-7-11", opener: fault{frag: 7}, server: fault{frag: 11}},
	}
	for _, stall := range []bool{false, true} {
		kind := "close"
		if stall {
			kind = "stall"
		}
		for _, cut := range []int{2, min(100, helloLen/2), openerLate} {
			cases = append(cases, faultCase{
				name: fmt.Sprintf("%s-opener@%d", kind, cut), opener: fault{cut: cut, stall: stall}, late: cut == openerLate,
			})
		}
		for _, cut := range []int{2, min(50, ackLen/2), serverLate} {
			cases = append(cases, faultCase{
				name: fmt.Sprintf("%s-server@%d", kind, cut), server: fault{cut: cut, stall: stall}, late: cut == serverLate,
			})
		}
	}
	return cases
}

// faultGrid is the grid the sweep faults interrupt: eight cheap units, so
// that the late cuts land inside the session's traffic.
func faultGrid() []sweep.Spec {
	var grid []sweep.Spec
	for _, app := range []string{"tm", "lv"} {
		for _, pol := range []string{"pard", "naive", "nexus", "clipper++"} {
			grid = append(grid, sweep.Spec{App: app, Kind: trace.Steady, Policy: pol})
		}
	}
	return grid
}

func TestSweepUnderTransportFaults(t *testing.T) {
	grid := faultGrid()
	baseline, err := testEngine().Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResults(t, baseline)

	// The hello is 24 bytes, the ack 17, a WorkUnit of this grid about 200
	// and a UnitResult about 1 300: with one unit outstanding at a time,
	// 1 500 is inside the eighth unit and 3 000 inside the third result.
	hello := sweepHello(testEngine())
	ackLen := ackFrameLen(HelloAck{Proto: ProtoVersion, LibraryFP: hello.LibraryFP, Capacity: 1})
	for _, tc := range faultCases(helloFrameLen(hello), ackLen, 1500, 3000) {
		// A sweep session has no read deadline once it is open — an idle
		// worker is normal — so a peer that stalls after the handshake stays
		// registered, holding its unit: a late stall is for the endgame rule
		// to route around, not a loss.
		silent := tc.late && (tc.opener.stall || tc.server.stall)
		t.Run(tc.name, func(t *testing.T) {
			timeout, _ := tc.timeouts()
			c := NewCoordinator(CoordinatorConfig{Engine: testEngine(), handshakeTimeout: timeout})
			defer c.Close()
			listenLoopback(t, c) // an emptied cluster waits for the healthy worker
			coordSide, workerSide := net.Pipe()
			oc, sc := tc.opener.wrap(coordSide), tc.server.wrap(workerSide)
			served := make(chan error, 1)
			go func() {
				served <- ServeConn(sc, WorkerConfig{Workers: 1, handshakeTimeout: timeout})
			}()
			joinErr := c.AddConn(oc)
			if (joinErr == nil) != (tc.late || !tc.faulty()) {
				t.Fatalf("handshake error: %v (late=%v)", joinErr, tc.late)
			}
			type outcome struct {
				rs  []*simgpu.Result
				err error
			}
			swept := make(chan outcome, 1)
			if joinErr == nil {
				go func() {
					rs, err := c.Sweep(context.Background(), grid)
					swept <- outcome{rs, err}
				}()
			}
			if silent {
				// The worker went silent holding a unit: a healthy worker that
				// joins afterwards gets an endgame copy and finishes the grid.
				deadline := time.Now().Add(10 * time.Second)
				for !oc.didFire() && !sc.didFire() {
					if time.Now().After(deadline) {
						t.Fatal("the fault never fired: the case tests nothing")
					}
					time.Sleep(time.Millisecond)
				}
				startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
				o := within(t, "the sweep", swept)
				if o.err != nil {
					t.Fatal(o.err)
				}
				if st := c.Stats(); st.Duplicated == 0 || st.WorkersLost != 0 || st.Requeued != 0 {
					t.Fatalf("want the stalled unit copied and no worker lost: %+v", st)
				}
				if !bytes.Equal(encodeResults(t, o.rs), want) {
					diffFailure(t, tc.name, baseline, o.rs)
				}
				c.Close()
				within(t, "the stalled worker after Close", served)
				return
			}
			if tc.faulty() {
				within(t, "the worker behind the faulty connection", served)
				if !oc.didFire() && !sc.didFire() {
					t.Fatal("the fault never fired: the case tests nothing")
				}
				if joinErr != nil {
					return // it never joined: both ends letting go is all there is to show
				}
				// Lost mid-sweep: its unit is requeued, and a healthy worker
				// that joins afterwards finishes the grid.
				deadline := time.Now().Add(10 * time.Second)
				for c.Stats().WorkersLost == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("coordinator never noticed the lost worker: %+v", c.Stats())
					}
					time.Sleep(time.Millisecond)
				}
				startLoopbackWorker(t, c, WorkerConfig{Workers: 1})
			}
			o := within(t, "the sweep", swept)
			if o.err != nil {
				t.Fatal(o.err)
			}
			if tc.faulty() && c.Stats().Requeued == 0 {
				t.Fatalf("the lost worker's unit was not requeued: %+v", c.Stats())
			}
			if !bytes.Equal(encodeResults(t, o.rs), want) {
				diffFailure(t, tc.name, baseline, o.rs)
			}
		})
	}
}

func TestSimUnderTransportFaults(t *testing.T) {
	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: trace.MustGenerate(trace.Config{Kind: trace.Steady, Duration: 2 * time.Second, PeakRate: 60, Seed: 2}),
		Seed:  1, SyncPeriod: 200 * time.Millisecond,
	}
	baseline, err := simgpu.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSimResult(t, baseline)

	// The hub's hello is 835 bytes (it carries the trace), the ack 17 and a
	// barrier frame tens of bytes: 3 000 is some hundred exchanges into the run
	// on both sides.
	job := jobFromConfig(cfg)
	hello := Hello{Proto: ProtoVersion, LibraryFP: profile.DefaultLibrary().Fingerprint(), Groups: 2, Group: 1, Job: &job}
	ackLen := ackFrameLen(HelloAck{Proto: ProtoVersion, LibraryFP: hello.LibraryFP})
	for _, tc := range faultCases(helloFrameLen(hello), ackLen, 3000, 3000) {
		t.Run(tc.name, func(t *testing.T) {
			var opts SimOptions
			opts.handshakeTimeout, opts.exchangeTimeout = tc.timeouts()
			hubSide, spokeSide := net.Pipe()
			oc, sc := tc.opener.wrap(hubSide), tc.server.wrap(spokeSide)
			type outcome struct {
				res *simgpu.Result
				err error
			}
			served := make(chan outcome, 1)
			go func() {
				res, err := ServeSim(sc, opts)
				served <- outcome{res, err}
			}()
			ran := make(chan outcome, 1)
			go func() {
				res, err := RunSimDistributed(cfg, []net.Conn{oc}, opts)
				ran <- outcome{res, err}
			}()
			hub, spoke := within(t, "the hub", ran), within(t, "the spoke", served)

			if tc.faulty() {
				if !oc.didFire() && !sc.didFire() {
					t.Fatal("the fault never fired: the case tests nothing")
				}
				if hub.err == nil || spoke.err == nil {
					t.Fatalf("a replica returned a result over a broken connection: hub err %v, spoke err %v", hub.err, spoke.err)
				}
				if strings.Contains(hub.err.Error(), "handshake") == tc.late {
					t.Fatalf("late=%v, but the hub failed with: %v", tc.late, hub.err)
				}
				return
			}
			if hub.err != nil || spoke.err != nil {
				t.Fatalf("fragmenting connection: hub err %v, spoke err %v", hub.err, spoke.err)
			}
			if !bytes.Equal(encodeSimResult(t, hub.res), want) || !bytes.Equal(encodeSimResult(t, spoke.res), want) {
				t.Fatal("a replica diverged from the single-process run over a fragmenting connection")
			}
		})
	}
}
