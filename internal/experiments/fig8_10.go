package experiments

import (
	"fmt"
	"time"

	"pard/internal/policy"
	"pard/internal/trace"
)

// the 12 workloads of Figs. 8-10: 4 apps × 3 traces.
var apps12 = []string{"lv", "tm", "gm", "da"}
var traces12 = []trace.Kind{trace.Wiki, trace.Tweet, trace.Azure}

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Average drop rate and invalid rate across 12 workloads",
		Run:   fig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Maximum average drop rate across time window sizes, 12 workloads",
		Run:   fig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Normalized real-time goodput timelines across 12 workloads",
		Run:   fig10,
	})
}

// grid12 builds the 12-workload × comparison-policy grid shared by
// Figs. 8-10 (submitted once; the sweep cache dedupes across figures).
func grid12() []Spec {
	pols := policy.Comparison()
	specs := make([]Spec, 0, len(traces12)*len(apps12)*len(pols))
	for _, kind := range traces12 {
		for _, app := range apps12 {
			for _, pol := range pols {
				specs = append(specs, Spec{App: app, Kind: kind, Policy: pol})
			}
		}
	}
	return specs
}

func fig8(h *Harness) (*Output, error) {
	drop := Table{
		ID:      "fig8a",
		Title:   "average drop rate",
		Columns: append([]string{"workload"}, policy.Comparison()...),
	}
	invalid := Table{
		ID:      "fig8b",
		Title:   "average invalid rate (wasted GPU time fraction)",
		Columns: append([]string{"workload"}, policy.Comparison()...),
	}
	results, err := h.Sweep(grid12())
	if err != nil {
		return nil, err
	}
	i := 0
	for _, kind := range traces12 {
		for _, app := range apps12 {
			dRow := []Cell{Label(fmt.Sprintf("%s-%s", app, kind))}
			iRow := []Cell{Label(fmt.Sprintf("%s-%s", app, kind))}
			for range policy.Comparison() {
				res := results[i]
				i++
				dRow = append(dRow, pct(res.Summary.DropRate))
				iRow = append(iRow, pct(res.Summary.InvalidRate))
			}
			drop.Rows = append(drop.Rows, dRow)
			invalid.Rows = append(invalid.Rows, iRow)
		}
	}
	return &Output{
		Tables: []Table{drop, invalid},
		Notes: []string{
			"Paper: PARD drops 0.12%-3.6% on average; 1.6-16.7x less than Nexus/Clipper++, with 1.5-61.9x less wasted compute.",
		},
	}, nil
}

func fig9(h *Harness) (*Output, error) {
	windows := fig2Windows(h, []time.Duration{22 * time.Second, 24 * time.Second, 26 * time.Second, 28 * time.Second})
	results, err := h.Sweep(grid12())
	if err != nil {
		return nil, err
	}
	var tables []Table
	i := 0
	for _, kind := range traces12 {
		for _, app := range apps12 {
			t := Table{
				ID:      fmt.Sprintf("fig9-%s-%s", app, kind),
				Title:   fmt.Sprintf("max drop rate vs window size, %s-%s", app, kind),
				Columns: append([]string{"window"}, policy.Comparison()...),
			}
			perPol := results[i : i+len(policy.Comparison())]
			i += len(policy.Comparison())
			for _, w := range windows {
				row := []Cell{secs(w)}
				for _, res := range perPol {
					row = append(row, pct(res.Collector.MaxDropRate(w)))
				}
				t.Rows = append(t.Rows, row)
			}
			tables = append(tables, t)
		}
	}
	return &Output{Tables: tables, Notes: []string{
		"Paper: reactive baselines hit transient drop rates up to 90-96%; PARD cuts them by 41-98% across timescales.",
	}}, nil
}

func fig10(h *Harness) (*Output, error) {
	bucket := 20 * time.Second
	if h.cfg.Scale != Full {
		bucket = 10 * time.Second
	}
	var tables []Table

	// Left panel: the traces themselves. One per-second count scratch is
	// recycled across the kinds (st.PerSecond aliases it, so it is only read
	// within the iteration).
	var secScratch []float64
	for _, kind := range traces12 {
		tr := h.Trace(kind)
		st := tr.AnalyzeInto(secScratch)
		secScratch = st.PerSecond
		t := Table{
			ID:      fmt.Sprintf("fig10-trace-%s", kind),
			Title:   fmt.Sprintf("request rate over time, %s trace (CV %.2f, burst CV %.2f)", kind, st.CV, st.BurstCV),
			Columns: []string{"time", "req/s"},
		}
		step := int(bucket.Seconds())
		for i := 0; i+step <= len(st.PerSecond); i += step {
			var sum float64
			for j := i; j < i+step; j++ {
				sum += st.PerSecond[j]
			}
			t.Rows = append(t.Rows, []Cell{whole(int64(i), "s"), f1(sum / float64(step))})
		}
		tables = append(tables, t)
	}

	// Right panels: normalized goodput timelines.
	results, err := h.Sweep(grid12())
	if err != nil {
		return nil, err
	}
	i := 0
	for _, kind := range traces12 {
		for _, app := range apps12 {
			t := Table{
				ID:      fmt.Sprintf("fig10-%s-%s", app, kind),
				Title:   fmt.Sprintf("normalized goodput over time, %s-%s", app, kind),
				Columns: append([]string{"time"}, policy.Comparison()...),
			}
			series := make([][]float64, 0, len(policy.Comparison()))
			var ts []time.Duration
			for range policy.Comparison() {
				res := results[i]
				i++
				t2, vs := res.Collector.GoodputSeries(bucket)
				ts = t2
				series = append(series, vs)
			}
			for i := range ts {
				row := []Cell{secs(ts[i])}
				for _, vs := range series {
					if i < len(vs) {
						row = append(row, f3(vs[i]))
					} else {
						row = append(row, Label("-"))
					}
				}
				t.Rows = append(t.Rows, row)
			}
			tables = append(tables, t)
		}
	}
	return &Output{Tables: tables, Notes: []string{
		"Paper: PARD holds the highest goodput through the burst windows; Naive is worst everywhere (16%-176% goodput gap).",
	}}, nil
}
