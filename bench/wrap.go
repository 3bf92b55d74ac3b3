package main

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pard/internal/sched"
)

// The program under test is measured from outside through the two seams it
// already exports: the net.Conn handed to dist.RunSimDistributed and the
// sched.Transport handed in through simgpu.Config.Remote. Both wrappers pass
// every call straight through; the correctness checks compare wrapped and
// unwrapped results to show they are transparent.

// countingConn counts and times the traffic of one connection. Read time is
// mostly waiting for the peer, write time is the kernel copy.
type countingConn struct {
	net.Conn
	tr         *tracer
	op, parent int

	reads, writes    atomic.Int64
	rxBytes, txBytes atomic.Int64
	readNs, writeNs  atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.reads.Add(1)
	c.rxBytes.Add(int64(n))
	c.readNs.Add(int64(end.Sub(start)))
	c.tr.add(c.op, c.parent, "net", "conn.Read", start, end)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.writes.Add(1)
	c.txBytes.Add(int64(n))
	c.writeNs.Add(int64(end.Sub(start)))
	c.tr.add(c.op, c.parent, "net", "conn.Write", start, end)
	return n, err
}

// countingTransport counts the lockstep exchanges of one lane group and the
// time the group spends inside them (rendezvous wait included).
type countingTransport struct {
	sched.Transport

	steps, barriers, boards, scales, finishes int
	posts, intents, emptyBarriers             int
	wait                                      time.Duration
}

func (t *countingTransport) exchanges() int {
	return t.steps + t.barriers + t.boards + t.scales + t.finishes
}

func (t *countingTransport) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	start := time.Now()
	out, err := t.Transport.Step(m)
	t.wait += time.Since(start)
	t.steps++
	return out, err
}

func (t *countingTransport) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	start := time.Now()
	out, err := t.Transport.Barrier(m)
	t.wait += time.Since(start)
	t.barriers++
	posts, intents, other := 0, 0, 0
	for i := range out {
		posts += len(out[i].Posts)
		intents += len(out[i].Intents)
		other += len(out[i].Charges) + len(out[i].Merges)
	}
	t.posts += posts
	t.intents += intents
	if posts+intents+other == 0 {
		t.emptyBarriers++
	}
	return out, err
}

func (t *countingTransport) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	start := time.Now()
	out, err := t.Transport.Board(m)
	t.wait += time.Since(start)
	t.boards++
	return out, err
}

func (t *countingTransport) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	start := time.Now()
	out, err := t.Transport.Scale(m)
	t.wait += time.Since(start)
	t.scales++
	return out, err
}

func (t *countingTransport) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	start := time.Now()
	out, err := t.Transport.Finish(m)
	t.wait += time.Since(start)
	t.finishes++
	return out, err
}

// spanHeader carries the client span's ID across the loopback socket so the
// handler's span can name it as its parent.
const spanHeader = "X-Bench-Span"

// tracedRoundTripper records one root span per HTTP request, from the load
// generator's side of the socket.
type tracedRoundTripper struct {
	next http.RoundTripper
	tr   *tracer
}

func (rt tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	op, id := rt.tr.newOp(), rt.tr.newID()
	// RoundTrip must not modify the caller's request; load.Run builds a fresh
	// one per call and never reads it again, and a clone per request would
	// charge the load client an allocation the untraced pass does not make.
	req.Header.Set(spanHeader, strconv.Itoa(op)+"/"+strconv.Itoa(id))
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	rt.tr.record(id, op, 0, "load", "http.RoundTrip", start, time.Now())
	return resp, err
}

// tracedHandler records the server's share of each request as a child of the
// client span named in the request header.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A request without the header (or with a mangled one) is recorded
		// as a root span of op 0 rather than refused.
		opStr, parentStr, _ := strings.Cut(r.Header.Get(spanHeader), "/")
		op, _ := strconv.Atoi(opStr)
		parent, _ := strconv.Atoi(parentStr)
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add(op, parent, "server", "Handler.ServeHTTP", start, time.Now())
	})
}
