package trace

import (
	"fmt"
	"sort"
	"time"
)

// ScaleRate returns a copy with arrivals thinned (factor < 1) or replicated
// with small offsets (factor > 1) so the mean rate scales by factor while
// preserving the temporal shape. The stretch is deterministic.
func (tr *Trace) ScaleRate(factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: rate factor must be positive, got %v", factor)
	}
	var out []time.Duration
	whole := int(factor)
	frac := factor - float64(whole)
	// Deterministic fractional selection: keep arrival i's extra copy when
	// the accumulated fraction crosses an integer (error diffusion).
	acc := 0.0
	for i, a := range tr.Arrivals {
		for c := 0; c < whole; c++ {
			// Spread replicas by a small deterministic jitter so they do not
			// collide on identical timestamps.
			out = append(out, a+time.Duration(c)*37*time.Microsecond)
		}
		acc += frac
		if acc >= 1 {
			acc--
			out = append(out, a+time.Duration(i%7+1)*53*time.Microsecond)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &Trace{Name: tr.Name, Arrivals: out, Duration: tr.Duration}, nil
}

// Offset returns a copy with every arrival shifted by delta (clamped at 0);
// the duration grows by delta when positive.
func (tr *Trace) Offset(delta time.Duration) *Trace {
	out := make([]time.Duration, 0, len(tr.Arrivals))
	for _, a := range tr.Arrivals {
		a += delta
		if a < 0 {
			continue
		}
		out = append(out, a)
	}
	dur := tr.Duration
	if delta > 0 {
		dur += delta
	}
	return &Trace{Name: tr.Name, Arrivals: out, Duration: dur}
}

// Stretch returns a copy with time dilated by factor (> 1 slows the trace
// down, reducing the rate; < 1 compresses it).
func (tr *Trace) Stretch(factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: stretch factor must be positive, got %v", factor)
	}
	out := make([]time.Duration, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		out[i] = time.Duration(float64(a) * factor)
	}
	return &Trace{
		Name:     tr.Name,
		Arrivals: out,
		Duration: time.Duration(float64(tr.Duration) * factor),
	}, nil
}
