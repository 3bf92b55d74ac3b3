package experiments

import (
	"fmt"

	"pard/internal/policy"
	"pard/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Ablation study: drop/invalid rates and per-module drops (lv-tweet)",
		Run:   fig11,
	})
}

// fig11 runs the Table 1 ablation variants on lv-tweet (§5.3 uses this
// workload for all ablations).
func fig11(h *Harness) (*Output, error) {
	rates := Table{
		ID:      "fig11a",
		Title:   "drop rate and invalid rate per ablation",
		Columns: []string{"policy", "drop rate", "invalid rate", "goodput (norm)"},
	}
	perMod := Table{
		ID:      "fig11b",
		Title:   "percent of drops at each module per ablation",
		Columns: []string{"policy", "M1", "M2", "M3", "M4", "M5"},
	}
	specs := make([]Spec, 0, len(policy.Ablations()))
	for _, pol := range policy.Ablations() {
		specs = append(specs, Spec{App: "lv", Kind: trace.Tweet, Policy: pol})
	}
	results, err := h.Sweep(specs)
	if err != nil {
		return nil, err
	}
	for i, pol := range policy.Ablations() {
		res := results[i]
		s := res.Summary
		norm := 0.0
		if s.Total > 0 {
			norm = float64(s.Good) / float64(s.Total)
		}
		rates.Rows = append(rates.Rows, []Cell{Label(pol), pct(s.DropRate), pct(s.InvalidRate), f3(norm)})
		row := []Cell{Label(pol)}
		for m := 0; m < 5; m++ {
			row = append(row, f1(s.PerModuleDropPct[m]))
		}
		perMod.Rows = append(perMod.Rows, row)
	}
	return &Output{
		Tables: []Table{rates, perMod},
		Notes: []string{
			"Paper: PARD-back/sf/oc drop 1.1-3.6x more with 2.1-24x higher invalid rates;",
			fmt.Sprintf("split variants lack budget flexibility; upper/lower mis-drop/mis-keep; FCFS/LBF/HBF lose 6-29%% goodput; instant thrashes (cf. %s).", "Fig. 13"),
		},
	}, nil
}
