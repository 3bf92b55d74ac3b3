// Package plot renders time series as ASCII line charts for terminal
// output. cmd/pard-bench uses it to visualize the figure-style artifacts
// (goodput timelines, load-factor traces, latency CDFs) without any
// graphics dependency.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is an ASCII line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 16)
	series []Series
	// YMin/YMax fix the y range when both are set (YMax > YMin).
	YMin, YMax float64
}

// markers assigns a rune per series, cycling when exhausted.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Add appends a series; x and y must have equal length.
func (c *Chart) Add(s Series) error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("plot: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	c.series = append(c.series, s)
	return nil
}

// Render draws the chart.
func (c *Chart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 16
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			points++
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if points == 0 {
		return fmt.Sprintf("%s\n(no data)\n", c.Title)
	}
	if c.YMax > c.YMin {
		ymin, ymax = c.YMin, c.YMax
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]rune, h)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", w))
	}
	for si, s := range c.series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(w-1))
			y := s.Y[i]
			if y < ymin {
				y = ymin
			}
			if y > ymax {
				y = ymax
			}
			row := h - 1 - int((y-ymin)/(ymax-ymin)*float64(h-1))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = m
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yLabelW := 10
	for r := 0; r < h; r++ {
		yVal := ymax - (ymax-ymin)*float64(r)/float64(h-1)
		label := ""
		if r == 0 || r == h-1 || r == h/2 {
			label = trimFloat(yVal)
		}
		fmt.Fprintf(&b, "%*s |%s\n", yLabelW, label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%*s +%s\n", yLabelW, "", strings.Repeat("-", w))
	lo, hi := trimFloat(xmin), trimFloat(xmax)
	pad := w - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%*s  %s%s%s", yLabelW, "", lo, strings.Repeat(" ", pad), hi)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "  (%s)", c.XLabel)
	}
	b.WriteByte('\n')
	if len(c.series) > 1 || c.series[0].Name != "" {
		fmt.Fprintf(&b, "%*s  ", yLabelW, "")
		for si, s := range c.series {
			if si > 0 {
				b.WriteString("   ")
			}
			fmt.Fprintf(&b, "%c %s", markers[si%len(markers)], s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
