package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's bound to two sets of values. The second set
// regressed when its median is worse than the first's by more than the bound;
// when either set's own spread is wider than the bound, the runs cannot tell,
// and the honest answer is unresolved rather than unchanged.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return verdictUnresolved, worse
	case worse > d.Bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every untraced run of a workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints one row per end-to-end metric and workload and returns
// 1 when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	printEnvironment(stdout, a.Env)
	printEnvironment(stdout, b.Env)
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "spread a", "spread b", "worse", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-18s missing from one of the files\n", w.Name, d.Name)
				status = 1
				continue
			}
			v, worse := verdict(d, va, vb)
			if v == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, median(va), median(vb), 100*spread(va), 100*spread(vb), 100*worse, 100*d.Bound, v)
		}
	}
	return status
}
