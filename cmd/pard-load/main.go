// Command pard-load drives production-shaped traffic at a running
// pard-server and reports goodput, outcome rates and latency quantiles. It
// replays the same arrival processes the simulator uses (open loop) or runs
// closed-loop workers with think time, and can replay the offsets it
// actually sent through the discrete-event simulator for a matched-load
// sim-vs-live comparison.
//
// Usage:
//
//	pard-server -app tm &
//	pard-load -target http://127.0.0.1:8080 -kind fixed -rate 100 -duration 10s
//	pard-load -mode closed -conns 8 -requests 1000 -think-min 5ms -think-max 20ms
//	pard-load -kind tweet -duration 30s -compare-sim -app tm -workers 2
//
// -kind also takes a trace CSV file, and -trace-csv records the offsets
// actually sent — the trace -compare-sim replays — for pard-sim -trace:
//
//	pard-load -kind fixed -rate 40 -duration 2s -trace-csv sent.csv
//	pard-sim -app tm -trace sent.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pard"
	"pard/internal/server"
)

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "server base URL")
		mode     = flag.String("mode", "open", "open (trace replay) or closed (workers with think time)")
		kind     = flag.String("kind", "fixed", "open-loop arrival process: fixed, steady, step, wiki, tweet, azure, or a trace CSV file")
		rate     = flag.Float64("rate", 100, "request rate for fixed arrivals, peak rate for the other kinds (req/s)")
		duration = flag.Duration("duration", 10*time.Second, "generated trace length (open) or run cap (closed)")
		seed     = flag.Int64("seed", 1, "random seed (trace generation and think times)")

		conns    = flag.Int("conns", 4, "closed-loop worker connections")
		requests = flag.Int("requests", 0, "closed-loop total request cap (0 = duration-bounded)")
		thinkMin = flag.Duration("think-min", 0, "closed-loop minimum think time")
		thinkMax = flag.Duration("think-max", 0, "closed-loop maximum think time (uniform in [min,max])")

		timeout     = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		maxInFlight = flag.Int("max-inflight", 0, "open-loop shed cap on outstanding requests (0 = unlimited)")

		jsonOut  = flag.Bool("json", false, "emit the report as JSON instead of a table")
		stream   = flag.String("stream", "", "stream per-request JSONL to this file ('-' = stdout)")
		traceCSV = flag.String("trace-csv", "", "write the recorded send offsets as a trace CSV (pard-sim -trace replays it)")

		compareSim = flag.Bool("compare-sim", false, "replay the recorded offsets through the simulator twin")
		app        = flag.String("app", "tm", "pipeline the target serves (for -compare-sim)")
		policy     = flag.String("policy", "pard", "drop policy the target runs (for -compare-sim)")
		workers    = flag.Int("workers", 2, "workers per module the target runs (for -compare-sim)")
		sync       = flag.Duration("sync", server.DefaultSyncPeriod, "target's state-sync period (for -compare-sim)")
	)
	flag.Parse()

	cfg := pard.LoadConfig{
		Target:      strings.TrimRight(*target, "/"),
		Mode:        *mode,
		Conns:       *conns,
		Requests:    *requests,
		Think:       pard.LoadThinkTime{Min: *thinkMin, Max: *thinkMax},
		Timeout:     *timeout,
		MaxInFlight: *maxInFlight,
		Seed:        *seed,
	}
	if *mode == pard.LoadModeOpen {
		tr, err := pard.ResolveTrace(*kind, *duration, *rate, *seed)
		if err != nil {
			fatal(err)
		}
		cfg.Trace = tr
	} else {
		cfg.Duration = *duration
		if *requests > 0 {
			cfg.Duration = 0 // an explicit request cap bounds the run instead
		}
	}
	if *stream != "" {
		w, closeFn, err := openStream(*stream)
		if err != nil {
			fatal(err)
		}
		defer closeFn()
		cfg.Stream = w
	}

	rep, err := pard.RunLoad(cfg)
	if err != nil {
		fatal(err)
	}

	if *compareSim {
		spec, ok := pard.Apps()[*app]
		if !ok {
			fatal(fmt.Errorf("unknown app %q for -compare-sim", *app))
		}
		ws := make([]int, spec.N())
		for i := range ws {
			ws[i] = *workers
		}
		if _, err := rep.CompareSim(pard.LoadSimSpec{
			Spec:       spec,
			PolicyName: *policy,
			Workers:    ws,
			SyncPeriod: *sync,
			Seed:       *seed,
		}); err != nil {
			fatal(err)
		}
	}

	if *traceCSV != "" {
		if err := writeTraceCSV(*traceCSV, rep); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		rep.WriteTable(os.Stdout)
	}
}

// openStream resolves the per-request JSONL destination.
func openStream(path string) (*os.File, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// writeTraceCSV saves the trace the generator actually sent, the one
// -compare-sim replays.
func writeTraceCSV(path string, rep *pard.LoadReport) error {
	tr := rep.Trace()
	if tr == nil {
		return errors.New("no send offsets recorded")
	}
	return tr.WriteFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pard-load:", err)
	os.Exit(1)
}
