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
//	pard-load -kind tweet -duration 30s -compare-sim
//
// -compare-sim reads the target's deployment from its GET /deployment route
// before the run, so the twin takes no flags of its own.
//
// -kind also takes a trace CSV file, and -trace-csv records the offsets
// actually sent — the trace -compare-sim replays — for pard-sim -trace. A
// send the server answered 429 (its -max-inflight bound) never reached its
// core, so neither the file nor the twin has it:
//
//	pard-load -kind fixed -rate 40 -duration 2s -trace-csv sent.csv
//	pard-sim -app tm -trace sent.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pard"
	"pard/internal/server"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pard-load:", err)
		os.Exit(1)
	}
}

// run parses args, drives the load, writes the report to stdout and returns it.
func run(args []string, stdout io.Writer) (*pard.LoadReport, error) {
	fs := flag.NewFlagSet("pard-load", flag.ContinueOnError)
	var (
		target   = fs.String("target", "http://127.0.0.1:8080", "server base URL")
		mode     = fs.String("mode", "open", "open (trace replay) or closed (workers with think time)")
		kind     = fs.String("kind", "fixed", "open-loop arrival process: fixed, steady, step, wiki, tweet, azure, or a trace CSV file")
		rate     = fs.Float64("rate", 100, "request rate for fixed arrivals, peak rate for the other kinds (req/s)")
		duration = fs.Duration("duration", 10*time.Second, "generated trace length (open) or run cap (closed)")
		seed     = fs.Int64("seed", 1, "random seed (trace generation and think times)")

		conns    = fs.Int("conns", 4, "closed-loop worker connections")
		requests = fs.Int("requests", 0, "closed-loop total request cap (0 = duration-bounded)")
		thinkMin = fs.Duration("think-min", 0, "closed-loop minimum think time")
		thinkMax = fs.Duration("think-max", 0, "closed-loop maximum think time (uniform in [min,max])")

		timeout     = fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		maxInFlight = fs.Int("max-inflight", 0, "open-loop shed cap on outstanding requests (0 = unlimited)")

		jsonOut  = fs.Bool("json", false, "emit the report as JSON instead of a table")
		stream   = fs.String("stream", "", "stream per-request JSONL to this file ('-' = stdout)")
		traceCSV = fs.String("trace-csv", "", "write the recorded send offsets, less those answered 429, as a trace CSV (pard-sim -trace replays it)")

		compareSim = fs.Bool("compare-sim", false, "replay the recorded offsets through the simulator twin of the target's deployment")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

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
			return nil, err
		}
		cfg.Trace = tr
	} else {
		cfg.Duration = *duration
		if *requests > 0 {
			cfg.Duration = 0 // an explicit request cap bounds the run instead
		}
	}
	var deployment server.Config
	if *compareSim {
		// Read before the run: a target that cannot be twinned fails at once.
		var err error
		if deployment, err = server.FetchDeployment(cfg.Target); err != nil {
			return nil, err
		}
	}
	if *stream != "" {
		w, closeFn, err := openStream(*stream, stdout)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		cfg.Stream = w
	}

	rep, err := pard.RunLoad(cfg)
	if err != nil {
		return nil, err
	}
	if *compareSim {
		if _, err := rep.CompareSim(deployment); err != nil {
			return nil, err
		}
	}
	if *traceCSV != "" {
		if err := writeTraceCSV(*traceCSV, rep); err != nil {
			return nil, err
		}
	}
	if *jsonOut {
		return rep, rep.WriteJSON(stdout)
	}
	rep.WriteTable(stdout)
	return rep, nil
}

// openStream resolves the per-request JSONL destination.
func openStream(path string, stdout io.Writer) (io.Writer, func(), error) {
	if path == "-" {
		return stdout, func() {}, nil
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
