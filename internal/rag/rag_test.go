package rag

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"slices"
	"testing"

	"pard/internal/stats"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Queries: 10, Policy: "bogus"},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestConservation(t *testing.T) {
	for _, p := range append(Policies(), NoDrop) {
		cfg := DefaultConfig(p)
		cfg.Queries = 2000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Total != cfg.Queries {
			t.Fatalf("%s: total %d, want %d", p, res.Total, cfg.Queries)
		}
		if res.Good+res.Late+res.Dropped != res.Total {
			t.Fatalf("%s: %d+%d+%d != %d", p, res.Good, res.Late, res.Dropped, res.Total)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(Proactive)
	cfg.Queries = 1500
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Good != b.Good || a.Dropped != b.Dropped || a.Late != b.Late {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestPolicyOrdering(t *testing.T) {
	// Fig. 15a: drop rate predict < proactive < reactive, goodput the
	// reverse order.
	results := map[PolicyKind]*Result{}
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[p] = res
	}
	re, pro, pred := results[Reactive], results[Proactive], results[Predict]
	if !(pred.DropRate < pro.DropRate && pro.DropRate < re.DropRate) {
		t.Fatalf("drop ordering violated: predict %.3f, proactive %.3f, reactive %.3f",
			pred.DropRate, pro.DropRate, re.DropRate)
	}
	if !(pred.NormalizedGoodput > pro.NormalizedGoodput && pro.NormalizedGoodput > re.NormalizedGoodput) {
		t.Fatalf("goodput ordering violated: predict %.3f, proactive %.3f, reactive %.3f",
			pred.NormalizedGoodput, pro.NormalizedGoodput, re.NormalizedGoodput)
	}
	// All three policies leave a nonzero residual drop rate (§7: even
	// proactive leaves ~17%, predict ~11%).
	if pred.DropRate <= 0 {
		t.Fatal("predict policy dropped nothing; workload not stressed")
	}
}

func TestReactiveDropsLate(t *testing.T) {
	// Reactive can only drop after the SLO has been consumed, so its drops
	// land in later stages than proactive's.
	re, err := Run(DefaultConfig(Reactive))
	if err != nil {
		t.Fatal(err)
	}
	pro, err := Run(DefaultConfig(Proactive))
	if err != nil {
		t.Fatal(err)
	}
	// "Late" here means after the rewrite LLM already ran, i.e. the drop
	// wasted LLM work.
	lateShare := func(r *Result) float64 {
		total := 0
		for _, n := range r.DropsPerStage {
			total += n
		}
		if total == 0 {
			return 0
		}
		return float64(total-r.DropsPerStage[StageRewrite]) / float64(total)
	}
	if lateShare(re) < lateShare(pro) {
		t.Fatalf("reactive late-stage drop share %.3f < proactive %.3f",
			lateShare(re), lateShare(pro))
	}
}

func TestLatencyDistributions(t *testing.T) {
	res, err := Run(DefaultConfig(Proactive))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Latencies {
		if len(s.Samples) == 0 {
			t.Fatalf("stage %s has no latency samples", StageNames[i])
		}
	}
	// Fig. 15b: retrieve is the fastest stage; search has the heaviest tail.
	med := func(stage int) float64 {
		return stats.PercentilesInto(nil, slices.Clone(res.Latencies[stage].Samples), 0.5)[0]
	}
	p99 := func(stage int) float64 {
		return stats.PercentilesInto(nil, slices.Clone(res.Latencies[stage].Samples), 0.99)[0]
	}
	if med(StageRetrieve) >= med(StageRewrite) || med(StageRetrieve) >= med(StageSearch) {
		t.Fatalf("retrieve should be fastest: med retrieve %.3f rewrite %.3f search %.3f",
			med(StageRetrieve), med(StageRewrite), med(StageSearch))
	}
	if p99(StageSearch) < 4*med(StageSearch) {
		t.Fatalf("search should be long-tailed: p99 %.3f vs median %.3f",
			p99(StageSearch), med(StageSearch))
	}
}

func TestNoDropBaseline(t *testing.T) {
	cfg := DefaultConfig(NoDrop)
	cfg.Queries = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("nodrop dropped %d requests", res.Dropped)
	}
	if res.Good+res.Late != res.Total {
		t.Fatal("nodrop lost requests")
	}
}

func gobBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatalf("%s: %v", res.Policy, err)
	}
	return buf.Bytes()
}

// TestRunRepeatable: nothing survives a Run. The four policies, then all four
// again twice in other orders, give byte-identical Results per policy every
// time, and the first pass's Results, kept alive throughout, still encode to
// the same bytes at the end — what the benchmark's grid op checks against its
// first op. A slab, window, queue or sample array carried from one run into
// the next would show here.
func TestRunRepeatable(t *testing.T) {
	orders := [][]PolicyKind{
		{Predict, Reactive, Proactive, NoDrop},
		{NoDrop, Proactive, Reactive, Predict},
		{Reactive, NoDrop, Predict, Proactive},
	}
	kept, first := map[PolicyKind]*Result{}, map[PolicyKind][]byte{}
	for pass, order := range orders {
		for _, p := range order {
			cfg := DefaultConfig(p)
			cfg.Queries = 4000
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if pass == 0 {
				kept[p], first[p] = res, gobBytes(t, res)
			} else if !bytes.Equal(gobBytes(t, res), first[p]) {
				t.Fatalf("pass %d: %s differs from its first run", pass+1, p)
			}
		}
	}
	for p, res := range kept {
		if !bytes.Equal(gobBytes(t, res), first[p]) {
			t.Fatalf("%s: the first run's Result changed under the runs that followed", p)
		}
	}
}

// TestAllocsRun: a run allocates per slice it grows, never per event or per
// request: four times the queries (and events) add a few doublings, not a few
// thousand closures. At the parent commit the difference was 20 000.
func TestAllocsRun(t *testing.T) {
	for _, p := range append(Policies(), NoDrop) {
		allocs := func(queries int) float64 {
			cfg := DefaultConfig(p)
			cfg.Queries = queries
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1000), allocs(4000)
		t.Logf("%s: %.0f allocations at 1000 queries, %.0f at 4000", p, small, large)
		if large-small >= 64 {
			t.Errorf("%s: %.0f allocations at 1000 queries, %.0f at 4000: want under 64 apart", p, small, large)
		}
	}
}

func BenchmarkRAGProactive(b *testing.B) {
	cfg := DefaultConfig(Proactive)
	cfg.Queries = 2000
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRAGGolden pins one full run per policy at DefaultConfig, seed 1: the
// outcome counts, the drops per stage, and a hash of the gob-encoded Result
// (latency samples included), so a change of event loop or event order shows
// byte for byte and not only count for count.
func TestRAGGolden(t *testing.T) {
	golden := []struct {
		policy              PolicyKind
		good, late, dropped int
		drops               [numStages]int
		sha                 string
	}{
		{Predict, 7534, 2, 2464, [numStages]int{1362, 37, 0, 1065}, "0c0eccddd67158305c88725aa710bd35b06f4ac606fe4bc2c4fad5e66402aa18"},
		{Reactive, 3026, 1944, 5030, [numStages]int{0, 4001, 0, 1029}, "3d8fd3ab7eb748e80e7868d51fb7f0d4bb9e75c23870a80c0ad122c452f0e468"},
		{Proactive, 6762, 0, 3238, [numStages]int{1055, 1113, 0, 1070}, "cd117325a9bf520fef1d1fe632f4ec741ea156979b42c68fd185f84f9973e94b"},
		{NoDrop, 2967, 7033, 0, [numStages]int{}, "a002576e20a7fbc40ccbfac4e84256949be7711f6f02c150fe8f4e0851a3ab69"},
	}
	for _, g := range golden {
		res, err := Run(DefaultConfig(g.policy))
		if err != nil {
			t.Fatalf("%s: %v", g.policy, err)
		}
		if res.Good != g.good || res.Late != g.late || res.Dropped != g.dropped || res.DropsPerStage != g.drops {
			t.Errorf("%s: good/late/dropped %d/%d/%d drops %v, want %d/%d/%d %v",
				g.policy, res.Good, res.Late, res.Dropped, res.DropsPerStage, g.good, g.late, g.dropped, g.drops)
		}
		sum := sha256.Sum256(gobBytes(t, res))
		if got := hex.EncodeToString(sum[:]); got != g.sha {
			t.Errorf("%s: gob(Result) sha256 %s, want %s", g.policy, got, g.sha)
		}
	}
}
