package experiments

import (
	"fmt"
	"time"

	"pard/internal/policy"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig2a",
		Title: "Minimum normalized goodput across time window sizes (lv-tweet)",
		Run:   fig2a,
	})
	register(Experiment{
		ID:    "fig2b",
		Title: "Drop rate at the minimum-goodput window (lv-tweet)",
		Run:   fig2b,
	})
	register(Experiment{
		ID:    "fig2c",
		Title: "Percent of dropped requests at each module under the reactive policy",
		Run:   fig2c,
	})
	register(Experiment{
		ID:    "fig2d",
		Title: "Transient drop rate of the reactive dropping policy (lv-tweet, Clipper++)",
		Run:   fig2d,
	})
}

// fig2Windows scales the paper's window sizes down for short traces.
func fig2Windows(h *Harness, paper []time.Duration) []time.Duration {
	if h.cfg.Scale == Full {
		return paper
	}
	out := make([]time.Duration, len(paper))
	for i, w := range paper {
		out[i] = w / 4
		if out[i] < 2*time.Second {
			out[i] = 2 * time.Second
		}
	}
	return out
}

// lvTweetComparison sweeps the four headline policies on lv-tweet (the
// windows in Figs. 2a/2b are applied post-hoc to the same four runs).
func lvTweetComparison(h *Harness) ([]*simgpu.Result, error) {
	specs := make([]Spec, 0, len(policy.Comparison()))
	for _, pol := range policy.Comparison() {
		specs = append(specs, Spec{App: "lv", Kind: trace.Tweet, Policy: pol})
	}
	return h.Sweep(specs)
}

func fig2a(h *Harness) (*Output, error) {
	windows := fig2Windows(h, []time.Duration{22 * time.Second, 24 * time.Second, 26 * time.Second})
	t := Table{
		ID:      "fig2a",
		Title:   "min normalized goodput vs window size, lv-tweet",
		Columns: append([]string{"window"}, policy.Comparison()...),
	}
	results, err := lvTweetComparison(h)
	if err != nil {
		return nil, err
	}
	for _, w := range windows {
		row := []Cell{secs(w)}
		for _, res := range results {
			row = append(row, f3(res.Collector.MinNormalizedGoodput(w)))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}}, nil
}

func fig2b(h *Harness) (*Output, error) {
	windows := fig2Windows(h, []time.Duration{5 * time.Second, 25 * time.Second, 50 * time.Second})
	t := Table{
		ID:      "fig2b",
		Title:   "drop rate at minimum-goodput window vs window size, lv-tweet",
		Columns: append([]string{"window"}, policy.Comparison()...),
	}
	results, err := lvTweetComparison(h)
	if err != nil {
		return nil, err
	}
	for _, w := range windows {
		row := []Cell{secs(w)}
		for _, res := range results {
			row = append(row, pct(res.Collector.DropRateAtMinGoodput(w)))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}}, nil
}

func fig2c(h *Harness) (*Output, error) {
	workloads := []struct {
		app  string
		kind trace.Kind
	}{
		{"lv", trace.Tweet}, {"lv", trace.Wiki},
		{"tm", trace.Tweet}, {"tm", trace.Wiki},
		{"gm", trace.Tweet}, {"gm", trace.Wiki},
	}
	cols := []string{"module"}
	for _, w := range workloads {
		cols = append(cols, fmt.Sprintf("%s-%s", w.app, w.kind))
	}
	t := Table{ID: "fig2c", Title: "percent of drops at each module, reactive (Nexus) policy", Columns: cols}
	specs := make([]Spec, len(workloads))
	for i, w := range workloads {
		specs[i] = Spec{App: w.app, Kind: w.kind, Policy: "nexus"}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	perWorkload := make([][]float64, len(workloads))
	maxModules := 0
	for i, res := range results {
		perWorkload[i] = res.Summary.PerModuleDropPct
		if len(perWorkload[i]) > maxModules {
			maxModules = len(perWorkload[i])
		}
	}
	for m := 0; m < maxModules; m++ {
		row := []Cell{Label(fmt.Sprintf("M%d", m+1))}
		for _, p := range perWorkload {
			if m < len(p) {
				row = append(row, f1(p[m]))
			} else {
				row = append(row, Label("-"))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper shape: 57.1%-97.2% of reactive drops land in the latter half of the pipeline.",
	}}, nil
}

func fig2d(h *Harness) (*Output, error) {
	res, err := h.Run("lv", trace.Tweet, "clipper++", RunOpts{})
	if err != nil {
		return nil, err
	}
	bucket := 10 * time.Second
	if h.cfg.Scale != Full {
		bucket = 5 * time.Second
	}
	ts, vs := res.Collector.DropRateSeries(bucket)
	t := Table{ID: "fig2d", Title: "transient drop rate over time, Clipper++ on lv-tweet",
		Columns: []string{"time", "drop rate"}}
	for i := range ts {
		t.Rows = append(t.Rows, []Cell{secs(ts[i]), pct(vs[i])})
	}
	return &Output{Tables: []Table{t}}, nil
}
