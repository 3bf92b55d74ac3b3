package experiments

import (
	"fmt"
	"time"

	"pard/internal/simgpu"
	"pard/internal/stats"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig12a",
		Title: "Consumed latency budget per module over time (PARD, lv-tweet)",
		Run:   fig12a,
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "CDF of end-to-end queueing delay, batch wait and inference duration",
		Run:   fig12b,
	})
	register(Experiment{
		ID:    "fig12c",
		Title: "Per-module queueing delay during workload burst (PARD vs FCFS vs LBF)",
		Run:   fig12c,
	})
	register(Experiment{
		ID:    "fig12d",
		Title: "Remaining latency budget of consecutive requests at M2/M3",
		Run:   fig12d,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Load factor and HBF/LBF transitions: PARD vs PARD-instant",
		Run:   fig13,
	})
}

var budgetProbes = simgpu.ProbeConfig{Budget: true, SampleEvery: 4}

func fig12a(h *Harness) (*Output, error) {
	res, err := h.Run("lv", trace.Tweet, "pard", RunOpts{Probes: budgetProbes})
	if err != nil {
		return nil, err
	}
	bucket := 20 * time.Second
	if h.cfg.Scale != Full {
		bucket = 10 * time.Second
	}
	t := Table{
		ID:      "fig12a",
		Title:   "per-module consumed latency budget (ms) over time",
		Columns: []string{"time", "M1", "M2", "M3", "M4", "M5"},
	}
	var ts []time.Duration
	cols := make([][]float64, len(res.Consumed))
	for k, s := range res.Consumed {
		t2, vs := s.Bucketed(bucket)
		if len(t2) > len(ts) {
			ts = t2
		}
		cols[k] = vs
	}
	for i := range ts {
		row := []Cell{secs(ts[i])}
		for _, vs := range cols {
			if i < len(vs) {
				row = append(row, f1(vs[i]))
			} else {
				row = append(row, Label("-"))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: budget demand fluctuates rapidly across modules (cold starts around 200s/600s), defeating static splits.",
	}}, nil
}

func fig12b(h *Harness) (*Output, error) {
	res, err := h.Run("lv", trace.Tweet, "pard", RunOpts{
		Probes: simgpu.ProbeConfig{Decomposition: true, SampleEvery: 4},
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "fig12b",
		Title:   "CDF quantiles of ΣQ, ΣW, ΣD (ms)",
		Columns: []string{"quantile", "ΣQ", "ΣW", "ΣD"},
	}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	// One reusable Empirical per column: res.SumQ/SumW/SumD are cached
	// result slices (shared across figures and persisted), so they must
	// never be sorted in place — Reset copies, and each column sorts once
	// instead of once per quantile.
	cols := [][]float64{res.SumQ, res.SumW, res.SumD}
	vals := make([][]float64, len(cols))
	var emp stats.Empirical
	for i, samples := range cols {
		emp.Reset(samples)
		vals[i] = make([]float64, len(qs))
		for j, q := range qs {
			vals[i][j] = emp.Quantile(q)
		}
	}
	for j, q := range qs {
		row := []Cell{Label(fmt.Sprintf("p%.0f", q*100))}
		for i := range cols {
			row = append(row, f1(vals[i][j]*1000))
		}
		t.Rows = append(t.Rows, row)
	}
	_, stdQ := stats.MeanStd(res.SumQ)
	_, stdW := stats.MeanStd(res.SumW)
	_, stdD := stats.MeanStd(res.SumD)
	return &Output{Tables: []Table{t}, Notes: []string{
		fmt.Sprintf("std(ΣQ)=%.1fms std(ΣW)=%.1fms std(ΣD)=%.1fms — paper: ΣW has far greater variance than ΣD and is the estimation challenge.",
			stdQ*1000, stdW*1000, stdD*1000),
	}}, nil
}

func fig12c(h *Harness) (*Output, error) {
	bucket := 10 * time.Second
	if h.cfg.Scale != Full {
		bucket = 5 * time.Second
	}
	var tables []Table
	pols := []string{"pard", "pard-fcfs", "pard-lbf"}
	specs := make([]Spec, len(pols))
	for i, pol := range pols {
		specs[i] = Spec{App: "lv", Kind: trace.Tweet, Policy: pol,
			Opts: RunOpts{Probes: simgpu.ProbeConfig{QueueDelay: true}}}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		res := results[i]
		t := Table{
			ID:      "fig12c-" + pol,
			Title:   fmt.Sprintf("queueing delay (ms) per module over time, %s", pol),
			Columns: []string{"time", "M1", "M2", "M3", "M4", "M5"},
		}
		var ts []time.Duration
		cols := make([][]float64, len(res.QueueDelay))
		for k, s := range res.QueueDelay {
			t2, vs := s.Bucketed(bucket)
			if len(t2) > len(ts) {
				ts = t2
			}
			cols[k] = vs
		}
		for i := range ts {
			row := []Cell{secs(ts[i])}
			for _, vs := range cols {
				if i < len(vs) {
					row = append(row, f1(vs[i]))
				} else {
					row = append(row, Label("-"))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return &Output{Tables: tables, Notes: []string{
		"Paper: FCFS/LBF accumulate queueing during the burst (+34% delay); PARD's HBF phase drains it.",
	}}, nil
}

func fig12d(h *Harness) (*Output, error) {
	res, err := h.Run("lv", trace.Tweet, "pard", RunOpts{Probes: budgetProbes})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "fig12d",
		Title:   "remaining latency budget (ms) of 100 consecutive requests at M2 and M3",
		Columns: []string{"request", "M2", "M3"},
	}
	m2, m3 := res.Remaining[1], res.Remaining[2]
	n := 100
	// Pick a window in the middle of the run.
	off2, off3 := m2.Len()/2, m3.Len()/2
	for i := 0; i < n && off2+i < m2.Len() && off3+i < m3.Len(); i++ {
		t.Rows = append(t.Rows, []Cell{
			whole(int64(i), ""), f1(m2.V[off2+i]), f1(m3.V[off3+i]),
		})
	}
	// Variability summary: the paper's point is that remaining budgets are
	// highly variable and time-independent, defeating arrival-order policies.
	cv2 := stats.CoefficientOfVariation(m2.V)
	cv3 := stats.CoefficientOfVariation(m3.V)
	return &Output{Tables: []Table{t}, Notes: []string{
		fmt.Sprintf("remaining-budget CV: M2 %.3f, M3 %.3f (high variability ⇒ arrival order ≠ budget order)", cv2, cv3),
	}}, nil
}

func fig13(h *Harness) (*Output, error) {
	var tables []Table
	switches := Table{
		ID:      "fig13-switches",
		Title:   "total HBF/LBF transitions over the run",
		Columns: []string{"policy", "switches"},
	}
	pols := []string{"pard", "pard-instant"}
	specs := make([]Spec, len(pols))
	for i, pol := range pols {
		specs[i] = Spec{App: "lv", Kind: trace.Tweet, Policy: pol,
			Opts: RunOpts{Probes: simgpu.ProbeConfig{LoadFactor: true}}}
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		res := results[i]
		t := Table{
			ID:      "fig13-" + pol,
			Title:   fmt.Sprintf("load factor μ and priority mode (0=LBF,1=HBF) over time, %s", pol),
			Columns: []string{"time", "load factor", "mode"},
		}
		for i := 0; i < res.LoadFactor.Len(); i++ {
			t.Rows = append(t.Rows, []Cell{
				secs(res.LoadFactor.T[i]), f3(res.LoadFactor.V[i]), f1(res.ModeSeries.V[i]),
			})
		}
		tables = append(tables, t)
		switches.Rows = append(switches.Rows, []Cell{Label(pol), whole(int64(res.PrioritySwitches), "")})
	}
	tables = append(tables, switches)
	return &Output{Tables: tables, Notes: []string{
		"Paper: PARD-instant flips between HBF/LBF on every fluctuation around μ=1; delayed transition holds steady.",
	}}, nil
}
