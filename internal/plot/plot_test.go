package plot

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestChartRendersAllSeries(t *testing.T) {
	c := Chart{Title: "demo", XLabel: "t"}
	if err := c.Add(Series{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Series{Name: "b", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	out := c.Render()
	for _, want := range []string{"demo", "*", "o", "a", "b", "(t)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChartMismatchedLengths(t *testing.T) {
	c := Chart{}
	if err := c.Add(Series{X: []float64{1}, Y: []float64{1, 2}}); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestChartEmpty(t *testing.T) {
	c := Chart{Title: "empty"}
	_ = c.Add(Series{})
	if out := c.Render(); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart rendered: %s", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := Chart{}
	_ = c.Add(Series{Name: "flat", X: []float64{0, 1}, Y: []float64{5, 5}})
	out := c.Render()
	if !strings.Contains(out, "*") {
		t.Fatalf("constant series not drawn:\n%s", out)
	}
}

func TestChartFixedYRangeClamps(t *testing.T) {
	c := Chart{YMin: 0, YMax: 1, Height: 5, Width: 10}
	_ = c.Add(Series{Name: "s", X: []float64{0, 1}, Y: []float64{-5, 5}})
	out := c.Render()
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.000") {
		t.Fatalf("fixed range labels missing:\n%s", out)
	}
}

func TestChartSkipsNaN(t *testing.T) {
	c := Chart{}
	_ = c.Add(Series{Name: "n", X: []float64{0, 1, 2}, Y: []float64{1, math.NaN(), 3}})
	out := c.Render()
	if strings.Contains(out, "NaN") {
		t.Fatalf("NaN leaked into render:\n%s", out)
	}
}

// Property: rendering never panics and every line of the plot area has the
// same width, for arbitrary finite inputs.
func TestPropertyRenderStable(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		fx, fy := make([]float64, 0, n), make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if math.IsInf(xs[i], 0) || math.IsInf(ys[i], 0) {
				continue
			}
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
		c := Chart{Width: 40, Height: 8}
		if err := c.Add(Series{Name: "p", X: fx, Y: fy}); err != nil {
			return false
		}
		out := c.Render()
		return len(out) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
