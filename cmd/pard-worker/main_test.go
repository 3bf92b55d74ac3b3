package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/dist"
	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

func TestFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("no-mode invocation accepted")
	}
	if err := run([]string{"-listen", ":0", "-join", "x:1"}, &out, &errb); err == nil {
		t.Fatal("both modes accepted")
	}
	if err := run([]string{"-join", "127.0.0.1:1"}, &out, &errb); err == nil {
		t.Fatal("join to a dead coordinator succeeded")
	}
	// A bad cache dir fails at startup with a clear error, not as a
	// dropped handshake against every coordinator.
	if err := run([]string{"-listen", "127.0.0.1:0", "-cache-dir", "/dev/null/not-a-dir"}, &out, &errb); err == nil {
		t.Fatal("unusable -cache-dir accepted")
	}
	// The worker has no mode: what a peer opens says what it is served.
	if err := run([]string{"-listen", "127.0.0.1:0", "-sim"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-sim: %v, want the flag package's undefined-flag error", err)
	}
}

// lockedBuffer lets the test read stderr while run() writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// awaitAddr polls a running worker's stderr for its resolved listen address.
func awaitAddr(t *testing.T, errb *lockedBuffer) string {
	t.Helper()
	addrRE := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(errb.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never reported its address:\n%s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeOneCoordinator boots the binary's -listen -once path on an
// ephemeral port, connects a real coordinator, and runs a grid through it.
func TestServeOneCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var out bytes.Buffer
	errb := &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-listen", "127.0.0.1:0", "-once", "-parallel", "2"}, &out, errb) }()

	addr := awaitAddr(t, errb)

	eng := sweep.New(sweep.Config{Workers: 2, BaseSeed: 5, TraceDuration: 10 * time.Second})
	c := dist.NewCoordinator(dist.CoordinatorConfig{Engine: eng})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConn(conn); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Sweep(context.Background(), []sweep.Spec{
		{App: "tm", Kind: trace.Steady, Policy: "pard"},
		{App: "tm", Kind: trace.Steady, Policy: "nexus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Summary.Total == 0 {
		t.Fatalf("distributed runs returned %v", rs)
	}
	c.Close() // hang up: -once worker exits cleanly
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after the coordinator hung up")
	}
	if !strings.Contains(errb.String(), "running unit") {
		t.Fatalf("worker logged no unit executions:\n%s", errb.String())
	}
}

// TestOneListenerServesBothSessions: one -listen worker with no mode flag
// serves a coordinator's sweep and then a simulation hub's lane group on the
// same address, each byte-identical to the local run — the opener's hello is
// what selects the session.
func TestOneListenerServesBothSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var out bytes.Buffer
	errb := &lockedBuffer{}
	go run([]string{"-listen", "127.0.0.1:0", "-parallel", "2"}, &out, errb)
	addr := awaitAddr(t, errb)
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	grid := []sweep.Spec{
		{App: "tm", Kind: trace.Steady, Policy: "pard"},
		{App: "tm", Kind: trace.Steady, Policy: "nexus"},
	}
	engine := func() *sweep.Engine {
		return sweep.New(sweep.Config{Workers: 2, BaseSeed: 5, TraceDuration: 10 * time.Second})
	}
	local, err := engine().Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	c := dist.NewCoordinator(dist.CoordinatorConfig{Engine: engine()})
	if err := c.AddConn(dial()); err != nil {
		t.Fatal(err)
	}
	remote, err := c.Sweep(context.Background(), grid)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(remote), encode(local)) {
		t.Fatal("the sweep served by the worker differs from the local one")
	}

	cfg := simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard", Seed: 5,
		Trace: trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 5 * time.Second, PeakRate: 100, Seed: 5}),
	}
	single, err := simgpu.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := dist.RunSimDistributed(cfg, []net.Conn{dial()}, dist.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(hub), encode(single)) {
		t.Fatal("the simulation served by the worker differs from the single-process run")
	}
	// Both sessions went through the one accept path and said which they were.
	for _, line := range []string{"serving coordinator", "serving sim lane group 1/2"} {
		if !strings.Contains(errb.String(), line) {
			t.Fatalf("worker log lacks %q:\n%s", line, errb.String())
		}
	}
}
