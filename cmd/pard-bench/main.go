// Command pard-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pard-bench                          # run everything at quick scale
//	pard-bench -scale full              # paper-length traces
//	pard-bench -only fig8,fig11         # a subset
//	pard-bench -out results             # also write text + CSV files
//	pard-bench -parallel 8              # fan simulations out over 8 workers
//	pard-bench -workers h1:7070,h2:7070 # distribute runs to pard-worker processes
//	pard-bench -listen :7071            # let pard-worker -join register instead
//
// Parallelism never changes the artifacts: at a fixed seed the outputs are
// byte-identical for any -parallel value, any -workers cluster shape, and
// any mix of the two (see internal/sweep and internal/dist).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pard"
	"pard/internal/dist"
	"pard/internal/experiments"
	"pard/internal/plot"
	"pard/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pard-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pard-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "quick", "experiment scale: smoke, quick, full")
	only := fs.String("only", "", "comma-separated experiment IDs (default all)")
	out := fs.String("out", "", "directory for text + CSV outputs (optional)")
	plots := fs.Bool("plot", false, "render ASCII charts for time-series tables")
	seed := fs.Int64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "concurrent simulation runs (0 = all CPU cores, 1 = sequential)")
	cacheDir := fs.String("cache-dir", "", "persist finished runs here so repeated invocations reuse them")
	workers := fs.String("workers", "", "comma-separated pard-worker addresses to distribute runs to (e.g. h1:7070,h2:7070)")
	listen := fs.String("listen", "", "listen address where pard-worker -join processes register (e.g. :7071)")
	minWorkers := fs.Int("min-workers", 1, "with -listen: wait for this many workers before starting")
	progress := fs.Bool("progress", false, "print per-run progress to stderr")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, e := range pard.Experiments() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := pard.SweepConfig{BaseSeed: *seed, Workers: *parallel, CacheDir: *cacheDir}
	if *cacheDir != "" {
		// Cache maintenance (e.g. a corrupt entry quarantined instead of
		// failing the run) is rare and worth an operator's attention.
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	switch *scale {
	case "smoke":
		cfg.TraceDuration = pard.ScaleSmoke
	case "quick":
		cfg.TraceDuration = pard.ScaleQuick
	case "full":
		cfg.TraceDuration = pard.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *progress {
		cfg.OnProgress = func(p sweep.Progress) {
			status := fmt.Sprintf("%.1fs", p.Elapsed.Seconds())
			if p.Err != nil {
				status = "error: " + p.Err.Error()
			}
			fmt.Fprintf(stderr, "[%d/%d] %s (%s)\n", p.Done, p.Total, p.Key, status)
		}
	}

	// Every -only ID must be registered, checked before anything runs.
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected[e.ID] = true
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	engine := pard.NewSweepEngine(cfg)
	if err := engine.DiskError(); err != nil {
		return err
	}

	// Distributed mode: grid sweeps fan out to remote pard-worker processes
	// instead of the in-process pool. Falls back to the pool automatically
	// when neither flag is given. Outputs are byte-identical either way.
	var coord *dist.Coordinator
	if *workers != "" || *listen != "" {
		coord = dist.NewCoordinator(dist.CoordinatorConfig{
			Engine: engine,
			// Cluster lifecycle events (joins, losses, requeues, empty-
			// cluster waits) are rare and operationally important, so they
			// log unconditionally — unlike per-run -progress output.
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
			// Remote executions bypass the engine's OnProgress (cache
			// installs are not local work), so -progress gets its per-run
			// lines from the coordinator instead.
			OnUnitDone: func(u dist.UnitDone) {
				if !*progress {
					return
				}
				status := fmt.Sprintf("worker %d, %.1fs", u.Worker, u.Elapsed.Seconds())
				if u.CacheHit {
					status = fmt.Sprintf("worker %d, warm cache", u.Worker)
				}
				if u.Err != "" {
					status = "error: " + u.Err
				}
				fmt.Fprintf(stderr, "[%d/%d] %s (%s)\n", u.Done, u.Total, u.Key, status)
			},
		})
		defer coord.Close()
		if *workers != "" {
			for _, addr := range strings.Split(*workers, ",") {
				addr = strings.TrimSpace(addr)
				if addr == "" {
					continue
				}
				// Bounded dial: one firewalled host should fail fast, not
				// hang the whole invocation on the OS connect timeout.
				conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					return fmt.Errorf("worker %s: %w", addr, err)
				}
				if err := coord.AddConn(conn); err != nil {
					return fmt.Errorf("worker %s: %w", addr, err)
				}
			}
		}
		if *listen != "" {
			l, err := net.Listen("tcp", *listen)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "pard-bench: waiting for %d worker(s) on %s (pard-worker -join <addr>)\n",
				*minWorkers, l.Addr())
			go func() {
				// A dead listener means no worker can ever join; close the
				// coordinator so WaitWorkers (and any sweep) aborts loudly
				// instead of hanging silently.
				if err := coord.Listen(l); err != nil {
					fmt.Fprintf(stderr, "pard-bench: listener failed: %v\n", err)
					coord.Close()
				}
			}()
			if err := coord.WaitWorkers(context.Background(), *minWorkers); err != nil {
				return err
			}
		}
		if coord.Workers() == 0 {
			return errors.New("distributed mode requested but no workers connected")
		}
		fmt.Fprintf(stderr, "pard-bench: distributing sweeps across %d worker(s)\n", coord.Workers())
		engine.SetDistributor(coord)
	}

	start := time.Now()
	ran := 0
	for _, e := range pard.Experiments() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		t0 := time.Now()
		output, err := e.Run(engine)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		ran++
		fmt.Fprintf(stdout, "=== %s — %s (%.1fs)\n\n", e.ID, e.Title, time.Since(t0).Seconds())
		for _, tab := range output.Tables {
			fmt.Fprintln(stdout, tab.Render())
			if *plots {
				if chart, ok := chartFromTable(tab); ok {
					fmt.Fprintln(stdout, chart)
				}
			}
			if *out != "" {
				path := filepath.Join(*out, tab.ID+".csv")
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
		for _, note := range output.Notes {
			fmt.Fprintf(stdout, "note: %s\n", note)
		}
		fmt.Fprintln(stdout)
	}
	if *cacheDir != "" {
		// Cache accounting goes to stderr so artifact output on stdout stays
		// byte-identical between cold and warm invocations.
		hits, misses := engine.DiskStats()
		fmt.Fprintf(stderr, "cache: %d disk hits, %d misses (%s)\n", hits, misses, *cacheDir)
	}
	if coord != nil {
		// Cluster accounting likewise stays off stdout.
		st := coord.Stats()
		fmt.Fprintf(stderr, "cluster: %d units dispatched (%d endgame duplicates), %d completed, %d requeued, %d cache hits (%d local, %d on workers), %d workers (%d lost)\n",
			st.Dispatched, st.Duplicated, st.Completed, st.Requeued,
			st.LocalHits+st.RemoteHits, st.LocalHits, st.RemoteHits, coord.Workers(), st.WorkersLost)
		for _, id := range slices.Sorted(maps.Keys(st.PerWorker)) {
			ws := st.PerWorker[id]
			fmt.Fprintf(stderr, "cluster: worker %d: %d completed (%d warm-cache hits)\n",
				id, ws.Completed, ws.CacheHits)
		}
	}
	fmt.Fprintf(stdout, "ran %d experiments in %.1fs (scale=%s seed=%d parallel=%d)\n",
		ran, time.Since(start).Seconds(), *scale, *seed, *parallel)
	return nil
}

// chartFromTable renders an ASCII chart when the table looks like a series:
// a numeric first column ("120s", "200ms", "0.5") and numeric data columns
// ("0.97", "42.00%"), each plotted as the number its cell shows.
func chartFromTable(tab pard.ExperimentTable) (string, bool) {
	if len(tab.Rows) < 4 || len(tab.Columns) < 2 {
		return "", false
	}
	xs := make([]float64, 0, len(tab.Rows))
	for _, row := range tab.Rows {
		x, ok := row[0].Number()
		if !ok {
			return "", false
		}
		xs = append(xs, x)
	}
	c := plot.Chart{Title: tab.Title, XLabel: tab.Columns[0], Width: 76, Height: 14}
	added := 0
	for col := 1; col < len(tab.Columns); col++ {
		var cx, cy []float64
		for i, row := range tab.Rows {
			if col >= len(row) {
				continue
			}
			if y, ok := row[col].Number(); ok {
				cx = append(cx, xs[i])
				cy = append(cy, y)
			}
		}
		if len(cy) < 4 {
			continue
		}
		if err := c.Add(plot.Series{Name: tab.Columns[col], X: cx, Y: cy}); err == nil {
			added++
		}
	}
	if added == 0 {
		return "", false
	}
	return c.Render(), true
}
