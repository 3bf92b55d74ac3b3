package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pard/internal/pipeline"
	"pard/internal/simgpu"
	"pard/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Probability density of total batch wait in a 4-module pipeline",
		Run:   fig6,
	})
}

// fig6 reproduces the Irwin-Hall shape of aggregated batch wait: each
// module's batch wait is ~U[0, d], so the sum over the last j modules
// concentrates around j·d/2, with the λ=0.1 quantiles at 0.31/0.28/0.22/0.10
// of the aggregated Σd (the worked example in §4.2).
func fig6(h *Harness) (*Output, error) {
	spec := pipeline.Uniform("u4", 4, "facerec", 400*time.Millisecond)
	results, err := h.Sweep([]Spec{{
		Pipeline: spec,
		Policy:   "naive", // no dropping: observe the undisturbed distribution
		Opts: RunOpts{
			SteadyRate: 200,
			SteadyDur:  traceDuration(h.cfg.Scale),
			Probes:     simgpu.ProbeConfig{Decomposition: true, SampleEvery: 1},
		},
	}})
	if err != nil {
		return nil, err
	}
	res := results[0]

	rng := rand.New(rand.NewSource(h.eng.SeedFor("fig6|convolve")))
	quant := Table{
		ID:      "fig6",
		Title:   "aggregated batch wait from module k to 4: quantiles (fraction of aggregated Σd)",
		Columns: []string{"aggregation", "q10", "q50", "q90", "paper q10"},
	}
	paperQ10 := []float64{0.31, 0.28, 0.22, 0.10}
	d := res.ProfiledDurs[0].Seconds()
	// One Monte-Carlo scratch serves all 12 convolutions; reusing it does not
	// change the RNG draws. The cached WaitSamples sources are read-only
	// throughout.
	var conv []float64
	sources := make([][]float64, 0, 4)
	for k := 0; k < 4; k++ {
		sources = sources[:0]
		for i := k; i < 4; i++ {
			sources = append(sources, res.WaitSamples[i])
		}
		sumD := float64(4-k) * d
		var q10, q50, q90 float64
		q10, conv = stats.ConvolveQuantileInto(conv, sources, 0.1, 10000, rng)
		q50, conv = stats.ConvolveQuantileInto(conv, sources, 0.5, 10000, rng)
		q90, conv = stats.ConvolveQuantileInto(conv, sources, 0.9, 10000, rng)
		quant.Rows = append(quant.Rows, []Cell{
			Label(fmt.Sprintf("M%d..M4", k+1)), f3(q10 / sumD), f3(q50 / sumD), f3(q90 / sumD), f3(paperQ10[k]),
		})
	}

	// Histogram of the full aggregation (M1..M4) for the density plot.
	hist := Table{
		ID:      "fig6-pdf",
		Title:   "PDF of total batch wait M1..M4 (x in units of Σd)",
		Columns: []string{"x/Σd", "density"},
	}
	all := stats.ConvolveSamples([][]float64{
		res.WaitSamples[0], res.WaitSamples[1], res.WaitSamples[2], res.WaitSamples[3],
	}, 20000, rng)
	dist := stats.NewEmpirical(all)
	edges, dens := dist.Histogram(24)
	sumD := 4 * d
	for i := range edges {
		hist.Rows = append(hist.Rows, []Cell{f3(edges[i] / sumD), f3(dens[i] * sumD)})
	}
	return &Output{
		Tables: []Table{quant, hist},
		Notes: []string{
			"Batch waits are near-uniform on [0, d]; sums follow Irwin-Hall, concentrating near (N-k+1)·d/2.",
		},
	}, nil
}
