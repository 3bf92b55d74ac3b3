// Command bench is the repository's benchmark: five workloads, every
// end-to-end metric on each with tracing off, and a second traced pass that
// attributes the time to layers. See README.md beside this file.
//
//	bash bench/run.sh --workload sim-steady-dense --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -runs 5 -out a.json     # every workload, both passes
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// environment is printed at the top of the text output and stored in every
// result and span file, so two result sets can be checked for comparability.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

// buildDir is the directory of the checkout that run.sh builds into and the
// only place the benchmark writes; .gitignore names it.
const buildDir = ".bench_build"

// benchProcs pins the scheduler width: the committed numbers come from a
// 2-core box, and a wider machine must not silently change what
// "sequential" and "two shards" mean.
const benchProcs = 2

// heapBallast is live, pointer-free and never touched, so it costs neither
// memory nor marking time. It keeps the collector's heap goal above 128 MiB,
// which keeps the pages the ops reuse mapped: without it the live heap falls
// to nothing between ops, the runtime returns the pages to the kernel and the
// next op faults them back in, and on the sandbox this is measured on one
// such fault costs tens of microseconds and varies several-fold from minute
// to minute (within-run spread of the dense op 18 % without, 6 % with). The
// price, stated in the README: collections are rarer than in a user's
// process, so an allocation saving shows in allocs_per_op more than in
// req_per_host_s. It is not larger because the heap must cycle through its
// goal once, faulting every page in, before ops run at their steady speed,
// and the warm-up ops have to cover that.
var heapBallast []byte

const ballastBytes = 64 << 20

// machine is the yardstick the op-shaped workloads scale their times by
// (calib.go), built on first use: at the command's start, or when a test
// reaches a workload without going through realMain.
var machine = sync.OnceValues(newYardstick)

func readEnvironment(seed int64) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// sizing is how much a run does besides filling its measuring time.
type sizing struct {
	// minOps is the least number of timed ops, however long one takes.
	minOps int
	// setupReps is how many times a run sets up; setup_s is the median, so
	// one slow page-in does not read as a set-up regression.
	setupReps int
}

// pairs is the least number of untraced/traced op pairs of a traced pass.
func (s sizing) pairs() int { return (s.minOps + 1) / 2 }

var (
	fullSizing  = sizing{minOps: 3, setupReps: 3}
	smokeSizing = sizing{minOps: 1, setupReps: 1} // bench_test.go
)

// runCtx is what one workload run receives.
type runCtx struct {
	seed    int64
	seconds float64
	size    sizing
	// tr is nil in the untraced pass, which produces the end-to-end
	// metrics; the traced pass produces the per-layer ones.
	tr  *tracer
	res *result
}

func (c *runCtx) traced() bool { return c.tr != nil }

// budget returns the given share of the run's measuring time.
func (c *runCtx) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	// Info holds readings that explain a metric without being one, such as
	// the unscaled time beside a scaled one.
	Info     map[string]float64 `json:"info,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

func (r *result) info(name string, v float64) {
	if r.Info == nil {
		r.Info = map[string]float64{}
	}
	r.Info[name] = v
}

// violate records a failed correctness check; any violation makes the run
// incorrect and the command exit non-zero.
func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Violations) == 0 }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics verifies the run emitted exactly the metrics its pass owes:
// each once, finite, and — end to end — never zero.
func (r *result) checkMetrics() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok && r.Traced:
			r.set(d.Name, 0, 0) // a layer this workload does not exercise
		case !ok:
			r.violate("metric %s was not emitted", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.violate("metric %s is not finite: %v", d.Name, v)
		case !r.Traced && v == 0:
			r.violate("end-to-end metric %s is zero", d.Name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			r.violate("metric %s is not in the metric table", name)
		}
		if !metricName.MatchString(name) {
			r.violate("metric name %q is malformed", name)
		}
	}
}

// runWorkload executes one pass of one workload.
func runWorkload(w *workloadDef, seed int64, seconds float64, traced bool, size sizing) (*result, *tracer, error) {
	res := &result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	ctx := &runCtx{seed: seed, seconds: seconds, size: size, res: res}
	if traced {
		ctx.tr = newTracer(w.Name)
	}
	if err := w.Run(ctx); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if res.Attempted < 1 {
		res.violate("no operation was attempted")
	}
	res.checkMetrics()
	return res, ctx.tr, nil
}

// contractLine is the last line of standard output in single-workload mode.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract() contractLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}

func printEnvironment(w io.Writer, env environment) {
	fmt.Fprintf(w, "# commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d\n",
		env.Commit, env.GoVersion, env.NProc, env.GoMaxProcs, env.Seed)
}

// printResult writes one run as a table: every metric by name with its
// value, unit, sample count and — end to end — its regression bound.
func printResult(w io.Writer, r *result) {
	pass, defs := "end-to-end (tracing off)", endToEnd
	if r.Traced {
		pass, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.3gs  %s ==\n", r.Workload, r.Seed, r.Seconds, pass)
	for _, d := range defs {
		line := fmt.Sprintf("%-34s %16.6g %-6s n=%-6d %s", d.Name, r.Metrics[d.Name], d.Unit, r.Samples[d.Name], d.Better)
		switch {
		case !r.Traced:
			line += fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		case r.Samples[d.Name] == 0:
			line += "  (layer not exercised here)"
		default:
			line += fmt.Sprintf("  moves %s; quiet on %s", d.Moves, d.Quiet)
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range slices.Sorted(maps.Keys(r.Info)) {
		fmt.Fprintf(w, "info: %s = %.6g\n", name, r.Info[name])
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.correct())
	for _, v := range r.Violations {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", v)
	}
	for _, v := range r.Warnings {
		fmt.Fprintf(w, "warning: %s\n", v)
	}
}

// runSeconds is the committed measuring time of one run.
const runSeconds = 15

// printContract writes BENCHMARK.json from the tables the program emits
// from, so the two cannot name different metrics.
func printContract(stdout, stderr io.Writer) int {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: all five, both passes)")
	seed := fs.Int64("seed", 1, "seed for every generated trace and every Seed field")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per run; BENCHMARK.json records the committed value, anything else is for local iteration")
	trace := fs.String("trace", "", "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass; without: 0 skips the traced pass")
	spans := fs.String("spans", buildDir+"/spans-%s.json", "where the traced pass writes its spans (%s = workload; empty = nowhere)")
	runs := fs.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "without -workload: write every run's metrics to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as the program's tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *contract {
		return printContract(stdout, stderr)
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -runs at least 1")
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	heapBallast = make([]byte, ballastBytes)
	if _, err := machine(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	env := readEnvironment(*seed)
	printEnvironment(stdout, env)

	pass := func(w *workloadDef, seed int64, traced bool) (*result, bool) {
		res, tr, err := runWorkload(w, seed, *seconds, traced, fullSizing)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return nil, false
		}
		printResult(stdout, res)
		if traced && *spans != "" {
			path := *spans
			if strings.Contains(path, "%s") {
				path = fmt.Sprintf(path, w.Name)
			}
			if err := tr.writeFile(path, env, res.Metrics); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return nil, false
			}
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
		return res, true
	}

	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, ok := pass(w, *seed, *trace == "1")
		if !ok {
			return 1
		}
		if !res.correct() {
			// A failed check prints no result line: a wrong number must not
			// be mistaken for a measurement.
			return 1
		}
		line, err := json.Marshal(res.contract())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}

	// Every workload untraced, on -runs consecutive seeds, then every
	// workload traced.
	file := resultFile{Env: env}
	status := 0
	for _, traced := range []bool{false, true} {
		reps := *runs
		if traced {
			if *trace == "0" {
				break
			}
			reps = 1
		}
		for i := range workloads {
			for n := 0; n < reps; n++ {
				res, ok := pass(&workloads[i], *seed+int64(n), traced)
				if !ok {
					return 1
				}
				file.Runs = append(file.Runs, res)
				if !res.correct() {
					status = 1
				}
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return status
}
