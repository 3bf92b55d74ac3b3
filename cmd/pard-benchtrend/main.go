// Command pard-benchtrend turns `go test -bench -benchmem` output into the
// repo's benchmark trajectory artifacts (BENCH_<n>.json) and gates CI on
// them. It reads benchmark output on stdin and, per flags:
//
//	-write FILE    write the parsed results as a trajectory entry
//	-compare FILE  fail (exit 1) if any benchmark present in FILE is missing
//	               or its allocs/op or B/op regressed beyond the tolerances
//	               below
//
// Both flags may be given together (compare against the previous entry,
// then write the new one). The gate is on what is deterministic: allocs/op
// and B/op are nearly exact per run and pinned tightly — the trajectory
// exists to catch "someone reintroduced per-event allocation". Wall time is
// not gated: CI runs one iteration on a host whose CPU flips between two
// speeds 1.25x apart, so a single ns/op is noise, and an ns/op far over its
// floor only prints an "info:" line; wall-time claims belong to bench/'s
// paired runs. -compare also reports metrics that land far under their floor,
// so a stale floor is visible and the trajectory ratchets downward over time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Tolerances for -compare: current value must stay below floor*factor.
const (
	allocsTolerance = 1.5 // allocation counts: near-deterministic, pinned tight
	bytesTolerance  = 1.5 // bytes/op: tracks allocation volume, similarly stable
)

// nsTolerance is where a single-run ns/op is worth an info line; it gates
// nothing.
const nsTolerance = 4.0

// improveAt is the fraction of the floor below which -compare calls out an
// improvement, signalling that the floor is stale and a tighter BENCH_<n>.json
// should be committed.
const improveAt = 0.5

// Result is one benchmark's parsed metrics.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Trend is one trajectory entry (one BENCH_<n>.json file).
type Trend struct {
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkShardedDASharded    5   798253572 ns/op   213960552 B/op   673467 allocs/op
//
// Extra custom metrics (events/s, gomaxprocs) are ignored.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse extracts benchmark results from `go test -bench -benchmem` output.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := Result{Name: strings.TrimPrefix(m[1], "Benchmark")}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchtrend: bad value %q on line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if res.NsPerOp == 0 {
			return nil, fmt.Errorf("benchtrend: no ns/op on line %q", sc.Text())
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// compare checks cur against the floor entry; every violation is returned
// (not just the first) so one CI run reports the full damage. The second
// return is what to print without failing: "IMPROVEMENT" lines — metrics that
// came in far enough under their floor (see improveAt) that the trajectory
// should ratchet: commit a new BENCH_<n>.json so the tightened numbers become
// the gate — and "info:" lines for an ns/op beyond nsTolerance.
func compare(floor Trend, cur []Result) (bad, notes []string) {
	byName := make(map[string]Result, len(cur))
	for _, r := range cur {
		byName[r.Name] = r
	}
	for _, f := range floor.Benchmarks {
		c, ok := byName[f.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: present in floor but not in current run", f.Name))
			continue
		}
		check := func(metric string, cv, fv, tol float64, gated bool) {
			if fv <= 0 {
				return
			}
			switch {
			case cv > fv*tol:
				over := fmt.Sprintf("%s: %.0f %s exceeds floor %.0f x%.1f", f.Name, cv, metric, fv, tol)
				if gated {
					bad = append(bad, over)
				} else {
					notes = append(notes, "info: "+over+" (one run's wall time; not gated)")
				}
			case cv > 0 && cv < fv*improveAt:
				notes = append(notes, fmt.Sprintf("IMPROVEMENT %s: %.0f %s is %.1fx under floor %.0f — ratchet the trajectory",
					f.Name, cv, metric, fv/cv, fv))
			}
		}
		check("ns/op", c.NsPerOp, f.NsPerOp, nsTolerance, false)
		check("allocs/op", c.AllocsPerOp, f.AllocsPerOp, allocsTolerance, true)
		check("B/op", c.BytesPerOp, f.BytesPerOp, bytesTolerance, true)
	}
	return bad, notes
}

func main() {
	write := flag.String("write", "", "write parsed results to this trajectory file")
	compareTo := flag.String("compare", "", "fail if results regress beyond this trajectory file")
	note := flag.String("note", "", "annotation stored in the written entry")
	flag.Parse()
	if *write == "" && *compareTo == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: need -write and/or -compare")
		os.Exit(2)
	}

	cur, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchtrend: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *compareTo != "" {
		data, err := os.ReadFile(*compareTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var floor Trend
		if err := json.Unmarshal(data, &floor); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %s: %v\n", *compareTo, err)
			os.Exit(2)
		}
		bad, notes := compare(floor, cur)
		for _, s := range notes {
			fmt.Println(s)
		}
		if len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "REGRESSION "+b)
			}
			os.Exit(1)
		}
		fmt.Printf("benchtrend: %d benchmarks within tolerance of %s\n", len(floor.Benchmarks), *compareTo)
	}

	if *write != "" {
		data, err := json.MarshalIndent(Trend{Note: *note, Benchmarks: cur}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchtrend: wrote %d benchmarks to %s\n", len(cur), *write)
	}
}
