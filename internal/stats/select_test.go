package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// selectionInputs are the shapes that break naive pivot rules: sorted both
// ways, one value, two values interleaved, a peak in the middle, and a few
// distinct values repeated thousands of times.
var selectionInputs = []struct {
	name string
	fill func(xs []float64, rng *rand.Rand)
}{
	{"random", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
	}},
	{"all-equal", func(xs []float64, _ *rand.Rand) {
		for i := range xs {
			xs[i] = 0.25
		}
	}},
	{"ascending", func(xs []float64, _ *rand.Rand) {
		for i := range xs {
			xs[i] = float64(i)
		}
	}},
	{"descending", func(xs []float64, _ *rand.Rand) {
		for i := range xs {
			xs[i] = float64(len(xs) - i)
		}
	}},
	{"organ-pipe", func(xs []float64, _ *rand.Rand) {
		for i := range xs {
			xs[i] = float64(min(i, len(xs)-1-i))
		}
	}},
	{"heavy-duplicates", func(xs []float64, rng *rand.Rand) {
		for i := range xs {
			xs[i] = float64(rng.Intn(4))
		}
	}},
}

// TestSelectionMatchesSort: the single-quantile PercentilesInto and
// ConvolveQuantileInto select, everything else sorts, and the two must agree
// on every value — the boards, estimates and goldens downstream are compared
// bit for bit.
func TestSelectionMatchesSort(t *testing.T) {
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	for _, n := range []int{1, 2, 3, 17, 512, 17500} {
		for _, in := range selectionInputs {
			t.Run(fmt.Sprintf("%s/%d", in.name, n), func(t *testing.T) {
				xs := make([]float64, n)
				in.fill(xs, rand.New(rand.NewSource(int64(n))))
				sorted := slices.Clone(xs)
				slices.Sort(sorted)
				for _, q := range qs {
					want := QuantileSorted(sorted, q)
					work := slices.Clone(xs)
					if got := PercentilesInto(nil, work, q); len(got) != 1 || got[0] != want {
						t.Fatalf("PercentilesInto(q=%v) = %v, the sort says %v", q, got, want)
					}
					// The input is reordered, never rewritten.
					slices.Sort(work)
					if !slices.Equal(work, sorted) {
						t.Fatalf("PercentilesInto(q=%v) changed the multiset of its input", q)
					}
					// One source of n samples drawn n times: the sums are a
					// resampling of xs, and the sorting wrapper is the oracle.
					a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
					sums := ConvolveSamples([][]float64{xs}, n, a)
					slices.Sort(sums)
					if got, _ := ConvolveQuantileInto(nil, [][]float64{xs}, q, n, b); got != QuantileSorted(sums, q) {
						t.Fatalf("ConvolveQuantileInto(q=%v) = %v, the sort says %v", q, got, QuantileSorted(sums, q))
					}
				}
				if got, want := PercentilesInto(nil, slices.Clone(xs), qs...), Percentiles(xs, qs...); !slices.Equal(got, want) {
					t.Fatalf("multi-quantile PercentilesInto %v != Percentiles %v", got, want)
				}
			})
		}
	}
}

// TestSelectNthPartitions checks the routine's own contract at every rank of
// small inputs, including the ranges short enough to skip partitioning and
// the NaN-first order slices.Sort uses.
func TestSelectNthPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nan := 0 * rng.NormFloat64() / 0
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n))
		}
		if n%5 == 0 {
			xs[rng.Intn(n)] = nan
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for k := 0; k < n; k++ {
			work := slices.Clone(xs)
			selectNth(work, k)
			if same := work[k] == sorted[k] || (work[k] != work[k] && sorted[k] != sorted[k]); !same {
				t.Fatalf("n=%d k=%d: selected %v, sort puts %v there", n, k, work[k], sorted[k])
			}
			for i, v := range work {
				if (i < k && v > work[k]) || (i > k && v < work[k]) {
					t.Fatalf("n=%d k=%d: %v at %d is on the wrong side of %v", n, k, v, i, work[k])
				}
			}
		}
	}
}

// TestSelectNthBudgetFallsBackToSort drives the partition budget to zero
// with an input built against the median-of-three rule and checks the
// fallback still lands on the sort's element.
func TestSelectNthBudgetFallsBackToSort(t *testing.T) {
	xs := medianOfThreeKiller(4096)
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for _, k := range []int{0, 1, 2047, 3890, 4095} {
		work := slices.Clone(xs)
		selectNth(work, k)
		if work[k] != sorted[k] {
			t.Fatalf("k=%d: selected %v, sort puts %v there", k, work[k], sorted[k])
		}
	}
}

// medianOfThreeKiller is Musser's sequence: every median-of-three pivot of a
// first/middle/last quicksort peels off two elements only.
func medianOfThreeKiller(n int) []float64 {
	xs := make([]float64, n)
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			xs[i-1] = float64(i)
			xs[i] = float64(k + i)
		}
		xs[k+i-1] = float64(2 * i)
	}
	return xs
}
