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
//	curl -X POST localhost:8080/infer
//	curl localhost:8080/stats      # summary, plus the executor's own counters
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
	admission := flag.Bool("admission", false, "enable estimator-driven admission control (429 + Retry-After at predicted SLO misses)")
	admInFlight := flag.Int("admission-inflight", 0, "admission gate in-flight bound (0 = unbounded; needs -admission)")
	admSLOFactor := flag.Float64("admission-slo-factor", 1.0, "admission threshold as a fraction of the SLO (needs -admission)")
	flag.Parse()

	srv, spec, err := newServer(*app, *policyName, *workers, *seed, pard.AdmissionConfig{
		Enabled:     *admission,
		MaxInFlight: *admInFlight,
		SLOFactor:   *admSLOFactor,
	})
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv.Start()

	gate := "off"
	if *admission {
		gate = "on"
	}
	fmt.Printf("pard-server: serving %s (%d modules, SLO %v) with policy %s on %s (admission %s)\n",
		*app, spec.N(), spec.SLO, *policyName, l.Addr(), gate)
	if err := serve(l, srv, 10*spec.SLO); err != nil {
		fatal(err)
	}
}

// serve runs the HTTP data plane on l until SIGINT or SIGTERM, then shuts
// down in order: the listener closes, requests in flight are answered (for at
// most drain, the /infer handler's own limit), the pipeline stops and the
// executor's account of the run is printed.
func serve(l net.Listener, srv *pard.Server, drain time.Duration) error {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
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
func newServer(app, policyName string, workers int, seed int64, adm pard.AdmissionConfig) (*pard.Server, *pard.Pipeline, error) {
	spec, ok := pard.Apps()[app]
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (have %s)", app, strings.Join(appNames(), ", "))
	}

	ws := make([]int, spec.N())
	for i := range ws {
		ws[i] = workers
	}
	srv, err := pard.NewServer(pard.ServerConfig{
		Spec:       spec,
		PolicyName: policyName,
		Workers:    ws,
		Seed:       seed,
		Admission:  adm,
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
