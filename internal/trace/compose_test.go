package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func mkSteady(rate float64, dur time.Duration, seed int64) *Trace {
	return MustGenerate(Config{Kind: Steady, Duration: dur, PeakRate: rate, Seed: seed})
}

func TestScaleRateUp(t *testing.T) {
	tr := mkSteady(100, 20*time.Second, 3)
	up, err := tr.ScaleRate(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(up.Len()), 2.5*float64(tr.Len()); math.Abs(got-want) > want*0.01 {
		t.Fatalf("scaled count %v, want ≈%v", got, want)
	}
	if !sort.SliceIsSorted(up.Arrivals, func(i, j int) bool { return up.Arrivals[i] < up.Arrivals[j] }) {
		t.Fatal("scaled trace not sorted")
	}
}

func TestScaleRateDownViaStretchComposition(t *testing.T) {
	tr := mkSteady(100, 20*time.Second, 4)
	if _, err := tr.ScaleRate(0); err == nil {
		t.Fatal("factor 0 accepted")
	}
	half, err := tr.ScaleRate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(half.Len()), 0.5*float64(tr.Len()); math.Abs(got-want) > want*0.05 {
		t.Fatalf("halved count %v, want ≈%v", got, want)
	}
}

func TestOffset(t *testing.T) {
	tr := &Trace{
		Arrivals: []time.Duration{time.Second, 2 * time.Second},
		Duration: 3 * time.Second,
	}
	fwd := tr.Offset(time.Second)
	if fwd.Arrivals[0] != 2*time.Second || fwd.Duration != 4*time.Second {
		t.Fatalf("forward offset: %v %v", fwd.Arrivals, fwd.Duration)
	}
	back := tr.Offset(-1500 * time.Millisecond)
	if back.Len() != 1 || back.Arrivals[0] != 500*time.Millisecond {
		t.Fatalf("backward offset should clip: %v", back.Arrivals)
	}
}

func TestStretch(t *testing.T) {
	tr := mkSteady(100, 10*time.Second, 5)
	slow, err := tr.Stretch(2)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration != 20*time.Second {
		t.Fatalf("stretched duration %v", slow.Duration)
	}
	if got := slow.MeanRate(); math.Abs(got-tr.MeanRate()/2) > 5 {
		t.Fatalf("stretched rate %v, want ≈%v", got, tr.MeanRate()/2)
	}
	if _, err := tr.Stretch(-1); err == nil {
		t.Fatal("negative stretch accepted")
	}
}

// Property: ScaleRate preserves ordering and approximately scales the count
// for arbitrary factors in (0, 4].
func TestPropertyScaleRateCount(t *testing.T) {
	tr := mkSteady(80, 10*time.Second, 6)
	f := func(raw uint8) bool {
		factor := float64(raw%40)/10 + 0.1 // 0.1 .. 4.0
		out, err := tr.ScaleRate(factor)
		if err != nil {
			return false
		}
		if !sort.SliceIsSorted(out.Arrivals, func(i, j int) bool { return out.Arrivals[i] < out.Arrivals[j] }) {
			return false
		}
		want := factor * float64(tr.Len())
		return math.Abs(float64(out.Len())-want) <= want*0.05+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
