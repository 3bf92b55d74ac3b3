package experiments

import (
	"time"

	"pard/internal/policy"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig14a",
		Title: "Stress test: goodput vs input request rate with fixed instances",
		Run:   fig14a,
	})
	register(Experiment{
		ID:    "fig14b",
		Title: "Drop rate sensitivity to the latency SLO (lv-tweet)",
		Run:   fig14b,
	})
	register(Experiment{
		ID:    "fig14c",
		Title: "Drop rate sensitivity to quantile λ",
		Run:   fig14c,
	})
	register(Experiment{
		ID:    "fig14d",
		Title: "Drop rate sensitivity to the sliding window size (lv)",
		Run:   fig14d,
	})
}

func fig14a(h *Harness) (*Output, error) {
	// Fixed instances (4 workers per module ≈ the per-app share of the
	// paper's 64-GPU cluster); sweep the offered rate past capacity.
	fixed := []int{4, 4, 4, 4, 4}
	rates := []float64{200, 350, 500, 650, 800}
	t := Table{
		ID:      "fig14a",
		Title:   "goodput (req/s) vs input request rate, lv, fixed instances",
		Columns: append(append([]string{"input rate"}, policy.Comparison()...), "optimal"),
	}
	var specs []Spec
	for _, rate := range rates {
		for _, pol := range policy.Comparison() {
			specs = append(specs, Spec{App: "lv", Policy: pol,
				Opts: RunOpts{SteadyRate: rate, FixedWorkers: fixed}})
		}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	var capacity float64
	i := 0
	for _, rate := range rates {
		row := []Cell{f1(rate)}
		for _, pol := range policy.Comparison() {
			res := results[i]
			i++
			good := float64(res.Summary.Good) / res.Collector.End().Seconds()
			row = append(row, f1(good))
			if pol == "pard" && good > capacity {
				capacity = good
			}
		}
		optimal := rate
		if capacity > 0 && capacity < rate {
			optimal = capacity
		}
		row = append(row, f1(optimal))
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: beyond testbed capacity PARD stays 11.9-132.9% above baselines and 3.4-23.4x closer to the optimal min(rate, capacity).",
	}}, nil
}

func fig14b(h *Harness) (*Output, error) {
	slos := []time.Duration{200 * time.Millisecond, 300 * time.Millisecond,
		400 * time.Millisecond, 500 * time.Millisecond, 600 * time.Millisecond}
	t := Table{
		ID:      "fig14b",
		Title:   "average drop rate vs SLO, lv-tweet",
		Columns: append([]string{"SLO"}, policy.Comparison()...),
	}
	var specs []Spec
	for _, slo := range slos {
		for _, pol := range policy.Comparison() {
			specs = append(specs, Spec{App: "lv", Kind: trace.Tweet, Policy: pol,
				Opts: RunOpts{SLOOverride: slo}})
		}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, slo := range slos {
		row := []Cell{whole(slo.Milliseconds(), "ms")}
		for range policy.Comparison() {
			row = append(row, pct(results[i].Summary.DropRate))
			i++
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: PARD sustains 0.85%-3.04% drop rates across SLOs, 1.9-5.3x lower than baselines.",
	}}, nil
}

func fig14c(h *Harness) (*Output, error) {
	lambdas := []float64{0.01, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0}
	apps := []string{"lv", "tm", "gm", "da"}
	t := Table{
		ID:      "fig14c",
		Title:   "PARD drop rate vs quantile λ (tweet trace)",
		Columns: append([]string{"lambda"}, apps...),
	}
	var specs []Spec
	for _, l := range lambdas {
		for _, app := range apps {
			specs = append(specs, Spec{App: app, Kind: trace.Tweet, Policy: "pard",
				Opts: RunOpts{Lambda: l}})
		}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, l := range lambdas {
		row := []Cell{f3(l)}
		for range apps {
			row = append(row, pct(results[i].Summary.DropRate))
			i++
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: the optimum lies in [0.075, 0.15] with little variation inside the range; λ=0.1 is the default.",
	}}, nil
}

func fig14d(h *Harness) (*Output, error) {
	windows := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
		4 * time.Second, 5 * time.Second, 7500 * time.Millisecond, 10 * time.Second, 15 * time.Second}
	kinds := []trace.Kind{trace.Wiki, trace.Tweet, trace.Azure}
	t := Table{
		ID:      "fig14d",
		Title:   "PARD drop rate vs sliding window size, lv",
		Columns: []string{"window", "wiki", "tweet", "azure"},
	}
	var specs []Spec
	for _, w := range windows {
		for _, kind := range kinds {
			specs = append(specs, Spec{App: "lv", Kind: kind, Policy: "pard",
				Opts: RunOpts{WindowSize: w}})
		}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, w := range windows {
		row := []Cell{Fixed(w.Seconds(), 1, "s")}
		for range kinds {
			row = append(row, pct(results[i].Summary.DropRate))
			i++
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper guideline: 5-7s windows for stable traces (CV<0.5), 3-5s for moderate (0.5-1.0), 1-3s for highly bursty (CV>=1.0).",
	}}, nil
}
