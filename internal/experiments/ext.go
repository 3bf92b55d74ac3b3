package experiments

import (
	"fmt"
	"time"

	"pard/internal/policy"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "ext-failure",
		Title: "Extension: goodput under injected machine failure (§2 motivation)",
		Run:   extFailure,
	})
	register(Experiment{
		ID:    "ext-analytic",
		Title: "Extension: Monte-Carlo vs closed-form (Irwin-Hall/CLT) batch-wait estimation",
		Run:   extAnalytic,
	})
}

// extFailure kills half of one module's workers mid-run and compares how the
// dropping policies ride through the capacity loss. The paper motivates
// dropping with machine failures (§2) but does not evaluate them; this
// extension does.
func extFailure(e *sweep.Engine) (*Output, error) {
	dur := e.Config().TraceDuration
	failAt := dur / 3
	t := Table{
		ID:      "ext-failure",
		Title:   fmt.Sprintf("metrics with 2 of module-2's workers failing at t=%s (lv, steady 350 req/s)", secs(failAt)),
		Columns: []string{"policy", "drop rate", "invalid rate", "min goodput (10s)", "goodput"},
	}
	specs := make([]Spec, 0, len(policy.Comparison()))
	for _, pol := range policy.Comparison() {
		specs = append(specs, Spec{App: "lv", Policy: pol, Opts: RunOpts{
			SteadyRate: 350,
			SteadyDur:  dur,
			Failures:   []simgpu.Failure{{At: failAt, Module: 2, Count: 2}},
		}})
	}
	results, err := e.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, pol := range policy.Comparison() {
		s := results[i].Summary
		t.Rows = append(t.Rows, []Cell{
			Label(pol), pct(s.DropRate), pct(s.InvalidRate),
			f3(results[i].Collector.MinNormalizedGoodput(10 * time.Second)),
			f1(s.Goodput),
		})
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Failure costs capacity until the scaling engine cold-starts replacements; proactive dropping limits the backlog damage.",
	}}, nil
}

// extAnalytic compares PARD's Monte-Carlo batch-wait quantile against the
// closed-form Irwin-Hall/CLT estimator across the three traces.
func extAnalytic(e *sweep.Engine) (*Output, error) {
	t := Table{
		ID:      "ext-analytic",
		Title:   "drop rate: Monte-Carlo (pard) vs closed-form (pard-analytic) wait estimation, lv",
		Columns: []string{"trace", "pard (MC)", "pard-analytic (CLT)"},
	}
	kinds := []trace.Kind{trace.Wiki, trace.Tweet, trace.Azure}
	var specs []Spec
	for _, kind := range kinds {
		for _, pol := range []string{"pard", "pard-analytic"} {
			specs = append(specs, Spec{App: "lv", Kind: kind, Policy: pol})
		}
	}
	results, err := e.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, kind := range kinds {
		mc, an := results[2*i], results[2*i+1]
		t.Rows = append(t.Rows, []Cell{
			Label(string(kind)), pct(mc.Summary.DropRate), pct(an.Summary.DropRate),
		})
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"The closed form needs no per-sync sampling (see BenchmarkAnalyticQuantile vs BenchmarkConvolveQuantile)",
		"but assumes W_i ~ U[0, d_i]; under partially-filled batches the empirical distribution deviates.",
	}}, nil
}
