// Command pard-sim runs one workload × policy simulation and prints the
// resulting metrics.
//
// Usage:
//
//	pard-sim -app lv -trace tweet -policy pard -duration 300s
//	pard-sim -app da -trace azure -policy nexus -seed 7 -compare
//	pard-sim -compare -parallel 4    # fan the comparison out over 4 workers
//
// -trace takes a built-in kind, fixed, or a trace CSV file (one arrival
// offset in seconds per line), such as one -trace-csv wrote or pard-load
// -trace-csv recorded from a live run:
//
//	pard-sim -trace tweet -duration 60s -trace-csv tweet.csv
//	pard-sim -trace tweet.csv -compare   # the same rows as -trace tweet
//
// Distributed simulation: one run split into lane groups across processes,
// bit-identical to the same run in one process (determinism invariant #5):
//
//	pard-sim -hosts hostB:7071,hostC:7071   # hub + 2 remote lane groups, each
//	                                        # served by a pard-worker -listen
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"pard"
	"pard/internal/dist"
	"pard/internal/metrics"
	"pard/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pard-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pard-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "lv", "application pipeline: tm, lv, gm, da")
	traceArg := fs.String("trace", "tweet", "workload trace: wiki, tweet, azure, steady, step, fixed, or a trace CSV file")
	traceCSV := fs.String("trace-csv", "", "write the trace the run used to this CSV file")
	policyName := fs.String("policy", "pard", "drop policy (see -list)")
	duration := fs.Duration("duration", 300*time.Second, "generated trace duration")
	rate := fs.Float64("rate", 0, "generated trace peak rate (req/s; 0 = paper nominal; required for fixed)")
	seed := fs.Int64("seed", 1, "random seed")
	compare := fs.Bool("compare", false, "run the four headline systems instead of one policy")
	parallel := fs.Int("parallel", 0, "concurrent simulation runs (0 = all CPU cores, 1 = sequential)")
	hosts := fs.String("hosts", "", "comma-separated addresses of waiting lane-group peers (pard-worker -listen); this process becomes the hub (lane group 0) and the run spans len(hosts)+1 processes")
	list := fs.Bool("list", false, "list policies and exit")
	window := fs.Duration("window", 24*time.Second, "goodput window size, a positive multiple of 250ms")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *window <= 0 || *window%metrics.WindowBase != 0 {
		return fmt.Errorf("-window %v: must be a positive multiple of %v", *window, metrics.WindowBase)
	}

	if *list {
		for _, p := range pard.Policies() {
			fmt.Fprintln(stdout, p)
		}
		return nil
	}

	spec, err := specFor(*app)
	if err != nil {
		return err
	}
	tr, err := pard.ResolveTrace(*traceArg, *duration, *rate, *seed)
	if err != nil {
		return err
	}
	if *traceCSV != "" {
		if err := tr.WriteFile(*traceCSV); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "workload %s-%s: %d requests, mean %.1f req/s, peak %.0f req/s, SLO %v\n",
		*app, tr.Name, tr.Len(), tr.MeanRate(), tr.Analyze().PeakRate, spec.SLO)

	if *hosts != "" {
		if *compare {
			return errors.New("-compare runs several policies; -hosts runs one simulation distributed")
		}
		res, err := runSimHub(strings.Split(*hosts, ","), pard.SimConfig{
			Spec:       spec,
			PolicyName: *policyName,
			Trace:      tr,
			Seed:       *seed,
		}, stderr)
		if err != nil {
			return err
		}
		printHeader(stdout)
		printRow(stdout, *policyName, res, *window)
		return nil
	}

	policies := []string{*policyName}
	if *compare {
		policies = pard.ComparisonPolicies()
	}

	// Fan the policy runs out over a bounded worker pool. Every policy
	// deliberately keeps the user's seed (the comparison fixes the workload
	// and jitter streams), so the output is identical at any -parallel.
	eng := sweep.New(sweep.Config{Workers: *parallel, BaseSeed: *seed})
	jobs := make([]sweep.Job[*pard.SimResult], len(policies))
	for i, pol := range policies {
		pol := pol
		jobs[i] = sweep.Job[*pard.SimResult]{
			Key: "sim|" + pol,
			Run: func(int64) (*pard.SimResult, error) {
				return pard.Simulate(pard.SimConfig{
					Spec:       spec,
					PolicyName: pol,
					Trace:      tr,
					Seed:       *seed,
				})
			},
		}
	}
	results, err := sweep.All(eng, jobs)
	if err != nil {
		return err
	}

	printHeader(stdout)
	for i, pol := range policies {
		printRow(stdout, pol, results[i], *window)
	}
	return nil
}

func printHeader(w io.Writer) {
	fmt.Fprintf(w, "%-14s %9s %9s %9s %9s %12s %10s %8s %8s\n",
		"policy", "goodput", "drop", "invalid", "late", "minGoodput", "maxDrop", "p50", "p99")
}

func printRow(w io.Writer, pol string, res *pard.SimResult, window time.Duration) {
	s := res.Summary
	p50, p99 := time.Duration(0), time.Duration(0)
	if qs := res.Collector.LatencyQuantiles(0.5, 0.99); qs != nil {
		p50, p99 = qs[0], qs[1]
	}
	fmt.Fprintf(w, "%-14s %8.1f/s %8.2f%% %8.2f%% %9d %12.3f %9.2f%% %7dms %6dms\n",
		pol, s.Goodput, 100*s.DropRate, 100*s.InvalidRate, s.Late,
		res.Collector.MinNormalizedGoodput(window),
		100*res.Collector.MaxDropRate(window),
		p50.Milliseconds(), p99.Milliseconds())
}

// runSimHub dials each waiting lane-group peer and runs one simulation
// replicated across all of them, this process serving as lane group 0.
func runSimHub(addrs []string, cfg pard.SimConfig, stderr io.Writer) (*pard.SimResult, error) {
	conns := make([]net.Conn, 0, len(addrs))
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			closeAll()
			return nil, errors.New("-hosts contains an empty address")
		}
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dialing lane-group peer %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	fmt.Fprintf(stderr, "pard-sim: distributing over %d lane groups (this host is the hub)\n", len(conns)+1)
	return dist.RunSimDistributed(cfg, conns, dist.SimOptions{
		Logf: func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	})
}

func specFor(app string) (*pard.Pipeline, error) {
	switch app {
	case "tm":
		return pard.TM(), nil
	case "lv":
		return pard.LV(), nil
	case "gm":
		return pard.GM(), nil
	case "da":
		return pard.DA(), nil
	case "da-dyn":
		return pard.DADynamic(0.5), nil
	default:
		return nil, fmt.Errorf("unknown app %q (tm, lv, gm, da, da-dyn)", app)
	}
}
