// Command pard-server hosts a pipeline — chain or DAG — behind HTTP with
// live PARD scheduling. Model execution is simulated by letting the
// profiled batch durations elapse on the wall clock; everything else
// (queues, batching, dropping, priority, state sync) is the real scheduler,
// the same shared core the simulator runs. SIGINT or SIGTERM drains: the
// listener closes, requests in flight are answered, the process exits 0.
//
// Usage:
//
//	pard-server -app lv -policy pard -addr :8080
//	pard-server -app da            # the fan-out/merge DAG pipeline
//	pard-server -max-inflight 32   # 429 + Retry-After: 1 past 32 outstanding
//	curl -X POST localhost:8080/infer
//	curl localhost:8080/stats      # summary, plus the executor's own counters
//	curl localhost:8080/deployment # what pard-load -compare-sim twins
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pard"
)

func main() {
	app := flag.String("app", "tm", "pipeline: tm, lv, gm, or the DAG da")
	policyName := flag.String("policy", "pard", "drop policy")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "workers per module")
	seed := flag.Int64("seed", 1, "random seed")
	maxInFlight := flag.Int("max-inflight", 0, "requests outstanding at once; arrivals over it get 429 + Retry-After: 1 (0 = unbounded)")
	flag.Parse()

	srv, spec, err := newServer(*app, *policyName, *workers, *seed, *maxInFlight)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv.Start()

	bound := "unbounded"
	if *maxInFlight > 0 {
		bound = fmt.Sprintf("at most %d in flight", *maxInFlight)
	}
	fmt.Printf("pard-server: serving %s (%d modules, SLO %v) with policy %s on %s (%s)\n",
		*app, spec.N(), spec.SLO, *policyName, l.Addr(), bound)
	if err := serve(l, srv, 10*spec.SLO); err != nil {
		fatal(err)
	}
}

// Per-request read bounds. readTimeout covers the headers plus a declared
// body of up to 1 MiB, so a client that sends its headers and then trickles
// the body is cut there. It does not bound the handler's wait for the
// pipeline: net/http lifts the read deadline once the body has been read.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
)

// serve runs the HTTP data plane on l until SIGINT or SIGTERM, then shuts
// down in order: the listener closes, requests in flight are answered (for at
// most drain, the /infer handler's own limit), the pipeline stops and the
// executor's account of the run is printed.
func serve(l net.Listener, srv *pard.Server, drain time.Duration) error {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       time.Minute,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		dctx, cancelDrain := context.WithTimeout(context.Background(), drain)
		defer cancelDrain()
		if err = hs.Shutdown(dctx); err != nil {
			hs.Close() // cut what did not finish in time
		}
	}
	srv.Stop()
	if st := srv.ExecStats(); st != nil {
		fmt.Printf("pard-server: executor fired %d events (%d pending), wake-up lag mean %.0f us, max %.0f us, by power of two from 1 us: %v\n",
			st.Fired, st.Pending, st.LagMeanUS, st.LagMaxUS, st.LagHist)
	}
	return err
}

// newServer builds (but does not start) the live server for an app name.
func newServer(app, policyName string, workers int, seed int64, maxInFlight int) (*pard.Server, *pard.Pipeline, error) {
	spec, ok := pard.Apps()[app]
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (have %s)", app, strings.Join(appNames(), ", "))
	}

	ws := make([]int, spec.N())
	for i := range ws {
		ws[i] = workers
	}
	srv, err := pard.NewServer(pard.ServerConfig{
		Spec:        spec,
		PolicyName:  policyName,
		Workers:     ws,
		Seed:        seed,
		MaxInFlight: maxInFlight,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, spec, nil
}

// appNames lists the hostable pipelines in sorted order.
func appNames() []string {
	var names []string
	for name := range pard.Apps() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pard-server:", err)
	os.Exit(1)
}
