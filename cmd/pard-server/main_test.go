package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"pard"
)

// TestMain lets the test binary stand in for the command: re-executed with
// runMainEnv set, it runs main() on the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

const runMainEnv = "PARD_SERVER_TEST_RUN_MAIN"

// TestSigtermDrains starts the command as a process, holds one request in
// flight, sends SIGTERM, and wants the request answered by the pipeline and
// the process gone with exit status 0 inside 5 s.
func TestSigtermDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	cmd := exec.Command(os.Args[0], "-app", "tm", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	out := bufio.NewReader(stdout)
	banner, err := out.ReadString('\n')
	if err != nil {
		t.Fatalf("no banner: %v", err)
	}
	_, rest, _ := strings.Cut(banner, " on ")
	addr, _, _ := strings.Cut(rest, " ")
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("no listen address in banner %q", banner)
	}

	// The server answers "100 Continue" when its handler starts reading the
	// body, so from then on the request is in flight; the body is withheld
	// until the listener is seen closed, so the answer comes mid-shutdown.
	body, feed := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/infer", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 2
	req.Header.Set("Expect", "100-continue")
	inFlight := make(chan struct{})
	req = req.WithContext(httptrace.WithClientTrace(req.Context(),
		&httptrace.ClientTrace{Got100Continue: func() { close(inFlight) }}))
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: 5 * time.Second}}
	type reply struct {
		status int
		body   string
		err    error
	}
	answered := make(chan reply, 1)
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			answered <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		answered <- reply{resp.StatusCode, string(b), err}
	}()
	select {
	case <-inFlight:
	case r := <-answered:
		t.Fatalf("answered before the body was sent: %+v", r)
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never asked for the body")
	}

	termed := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break // the listener is closed: shutdown has begun
		}
		c.Close()
		if time.Since(termed) > 5*time.Second {
			t.Fatal("still accepting connections 5 s after SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := feed.Write([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	feed.Close()
	r := <-answered
	if r.err != nil || r.status != http.StatusOK || strings.Contains(r.body, `"drop_module":-1`) {
		t.Fatalf("the request in flight at SIGTERM got %+v, want the pipeline's own answer", r)
	}

	type exit struct {
		out string
		err error
	}
	exited := make(chan exit, 1)
	go func() {
		b, _ := io.ReadAll(out) // to end of file, which is the process exiting
		exited <- exit{string(b), cmd.Wait()}
	}()
	select {
	case e := <-exited:
		if e.err != nil || !strings.Contains(e.out, "executor fired") {
			t.Fatalf("exit after SIGTERM: %v, want status 0 and the executor's account in %q", e.err, e.out)
		}
	case <-time.After(5*time.Second - time.Since(termed)):
		t.Fatal("still running 5 s after SIGTERM")
	}
}

// TestReadTimeoutCutsTrickledBody: a client that declares a 1 MiB body and
// then trickles it a byte at a time is answered 400 and cut once readTimeout
// has passed, while a request with a normal body is served as before and the
// trickled one never reaches the pipeline.
func TestReadTimeoutCutsTrickledBody(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	srv, spec, err := newServer("tm", "pard", 2, 1, pard.AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	served := make(chan error, 1)
	go func() { served <- serve(l, srv, 10*spec.SLO) }()
	defer func() {
		l.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /infer HTTP/1.1\r\nHost: pard\r\nContent-Length: 1048576\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	stop, trickled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(trickled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
			if _, err := conn.Write([]byte{'x'}); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-trickled
	}()

	resp, err := http.Post("http://"+l.Addr().String()+"/infer", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer beside the trickling client = %d, want 200", resp.StatusCode)
	}

	conn.SetReadDeadline(start.Add(readTimeout + 5*time.Second))
	cut, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("trickled body not answered within %v: %v", readTimeout+5*time.Second, err)
	}
	cut.Body.Close()
	if took := time.Since(start); cut.StatusCode != http.StatusBadRequest || took < readTimeout-time.Second || took > readTimeout+2*time.Second {
		t.Fatalf("trickled body answered %d after %v, want 400 at the %v read timeout", cut.StatusCode, took, readTimeout)
	}
	if n := srv.Summary().Total; n != 1 {
		t.Fatalf("the pipeline saw %d requests, want only the normal one", n)
	}
}

func TestUnknownAppRejected(t *testing.T) {
	if _, _, err := newServer("bogus", "pard", 2, 1, pard.AdmissionConfig{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestServeDAGApp pushes one request through the da fan-out/merge pipeline
// on the live runtime.
func TestServeDAGApp(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	srv, spec, err := newServer("da", "pard", 2, 1, pard.AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.IsChain() {
		t.Fatal("da spec is a chain; want a DAG")
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer status %d", resp.StatusCode)
	}
}

// TestServeOneRequest starts the live server, pushes one request through
// the HTTP data plane and reads the stats endpoint.
func TestServeOneRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	srv, spec, err := newServer("tm", "pard", 2, 1, pard.AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.N() != 3 {
		t.Fatalf("tm has %d modules, want 3", spec.N())
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer status %d", resp.StatusCode)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	if stats.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats status %d", stats.StatusCode)
	}
}
