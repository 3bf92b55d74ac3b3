package experiments

import (
	"fmt"

	"pard/internal/rag"
	"pard/internal/stats"
	"pard/internal/sweep"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig15a",
		Title: "RAG workflow: normalized goodput and drop rate per policy",
		Run:   fig15a,
	})
	register(Experiment{
		ID:    "fig15b",
		Title: "RAG workflow: module latency distributions",
		Run:   fig15b,
	})
	register(Experiment{
		ID:    "dag-dynamic",
		Title: "DAG with request-specific dynamic paths (§5.2): drop-rate increase",
		Run:   dagDynamic,
	})
}

// ragQueries is the RAG workflow's query count at e's scale.
func ragQueries(e *sweep.Engine) int {
	switch d := e.Config().TraceDuration; {
	case d <= Smoke:
		return 2000
	case d >= Full:
		return 10000
	default:
		return 5000
	}
}

// ragJob wraps one RAG workflow run as a sweep job: the cache key encodes
// policy and scale, and the run's RNG stream is the key-derived seed.
func ragJob(e *sweep.Engine, p rag.PolicyKind) sweep.Job[*rag.Result] {
	queries := ragQueries(e)
	return sweep.Job[*rag.Result]{
		Key: fmt.Sprintf("rag|%s|q=%d", p, queries),
		Run: func(seed int64) (*rag.Result, error) {
			cfg := rag.DefaultConfig(p)
			cfg.Queries = queries
			cfg.Seed = seed
			return rag.Run(cfg)
		},
	}
}

func fig15a(e *sweep.Engine) (*Output, error) {
	t := Table{
		ID:      "fig15a",
		Title:   "RAG TTFT goodput per dropping policy (SLO 5s)",
		Columns: []string{"policy", "normalized goodput", "drop rate", "drops: rewrite/retrieve/search/generate"},
	}
	jobs := make([]sweep.Job[*rag.Result], len(rag.Policies()))
	for i, p := range rag.Policies() {
		jobs[i] = ragJob(e, p)
	}
	results, err := sweep.All(e, jobs)
	if err != nil {
		return nil, err
	}
	for i, p := range rag.Policies() {
		res := results[i]
		t.Rows = append(t.Rows, []Cell{
			Label(string(p)), f3(res.NormalizedGoodput), pct(res.DropRate),
			Label(fmt.Sprintf("%d/%d/%d/%d", res.DropsPerStage[0], res.DropsPerStage[1],
				res.DropsPerStage[2], res.DropsPerStage[3])),
		})
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: reactive drops 39%, proactive 17%, predict (oracle output lengths) 11%.",
	}}, nil
}

func fig15b(e *sweep.Engine) (*Output, error) {
	results, err := sweep.All(e, []sweep.Job[*rag.Result]{ragJob(e, rag.Proactive)})
	if err != nil {
		return nil, err
	}
	res := results[0]
	t := Table{
		ID:      "fig15b",
		Title:   "RAG per-module latency percentiles (ms)",
		Columns: []string{"percentile", "rewrite", "retrieve", "search", "generate"},
	}
	// Reusable Empirical per module column: the cached sample slices stay
	// untouched (Reset copies) and each column sorts once for all quantiles.
	qs := []float64{0.1, 0.5, 0.9, 0.99}
	vals := make([][]float64, len(res.Latencies))
	var emp stats.Empirical
	for i, s := range res.Latencies {
		emp.Reset(s.Samples)
		vals[i] = make([]float64, len(qs))
		for j, q := range qs {
			vals[i][j] = emp.Quantile(q)
		}
	}
	for j, q := range qs {
		row := []Cell{Label(fmt.Sprintf("p%.0f", q*100))}
		for i := range res.Latencies {
			row = append(row, f1(vals[i][j]*1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: rewrite latency varies with output length; search is long-tailed (network); retrieve is fast and stable.",
	}}, nil
}

// dagDynamic reproduces the §5.2 experiment: da with probabilistic branch
// selection raises PARD's drop rate by a small factor due to path
// mis-estimation.
func dagDynamic(e *sweep.Engine) (*Output, error) {
	t := Table{
		ID:      "dag-dynamic",
		Title:   "PARD drop rate: static DA vs dynamic-path DA",
		Columns: []string{"trace", "da (static)", "da-dyn (dynamic)", "increase"},
	}
	kinds := []trace.Kind{trace.Wiki, trace.Tweet, trace.Azure}
	var specs []Spec
	for _, kind := range kinds {
		for _, app := range []string{"da", "da-dyn"} {
			specs = append(specs, Spec{App: app, Kind: kind, Policy: "pard"})
		}
	}
	results, err := e.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, kind := range kinds {
		static, dyn := results[2*i], results[2*i+1]
		inc := Label("-")
		if static.Summary.DropRate > 0 {
			inc = change(dyn.Summary.DropRate/static.Summary.DropRate - 1)
		}
		t.Rows = append(t.Rows, []Cell{
			Label(string(kind)), pct(static.Summary.DropRate), pct(dyn.Summary.DropRate), inc,
		})
	}
	return &Output{Tables: []Table{t}, Notes: []string{
		"Paper: dynamic paths raise PARD's drop rate by 0.05x/0.21x/0.10x across the three traces.",
	}}, nil
}
