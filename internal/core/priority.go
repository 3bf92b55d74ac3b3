package core

import (
	"fmt"
	"time"

	"pard/internal/stats"
)

// Mode is the request prioritization mechanism in force at a module (§4.3).
type Mode int

// Priority modes.
const (
	// LBF (Low Budget First) serves requests with the smallest remaining
	// latency budget first; used under steady load (μ ≤ 1) to absorb latency
	// uncertainty.
	LBF Mode = iota
	// HBF (High Budget First) serves requests with the largest remaining
	// budget first; used under overload (μ > 1) to preserve budget for
	// downstream modules.
	HBF
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case LBF:
		return "LBF"
	case HBF:
		return "HBF"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultPriorityWindow is the horizon over which the workload is smoothed
// and the hysteresis boundary ε is computed (the paper's 5 s, §5.4).
const DefaultPriorityWindow = 5 * time.Second

// The hysteresis band's bounds: epsMin floors ε so micro-noise cannot force
// a transition exactly at μ = 1 even on perfectly steady workloads, and
// epsMax caps it so extreme bursts cannot freeze the controller.
const (
	epsMin = 0.02
	epsMax = 0.25
)

// PriorityController implements the delayed adaptive priority transition:
// switch to HBF when μ > 1+ε, to LBF when μ < 1−ε, hold otherwise, with
// ε = Σ|T_in − T_s| / ΣT_in computed over the smoothing window so bursty
// workloads widen the hysteresis band (§4.3).
type PriorityController struct {
	// instant disables delayed transition (ε = 0): the PARD-instant
	// ablation.
	instant  bool
	mode     Mode
	inWin    stats.SlidingWindow // raw T_in samples
	diffWin  stats.SlidingWindow // |T_in − T_s| samples
	lastMu   float64
	lastEps  float64
	switches int
	// epsMin and epsMax are the constants; only tests change them.
	epsMin, epsMax float64
}

// NewPriorityControllers returns n controllers, each over a smoothing window
// and starting in LBF (steady-state assumption), in one array that holds
// their windows by value: the set costs one allocation. instant drops the
// hysteresis band.
func NewPriorityControllers(n int, window time.Duration, instant bool) []PriorityController {
	if window <= 0 {
		panic(fmt.Sprintf("core: priority window must be positive, got %v", window))
	}
	pcs := make([]PriorityController, n)
	for i := range pcs {
		p := &pcs[i]
		p.instant, p.mode = instant, LBF
		p.inWin.Init(window)
		p.diffWin.Init(window)
		p.epsMin, p.epsMax = epsMin, epsMax
	}
	return pcs
}

// ReservePriorityControllers sizes the two windows of every controller of
// pcs for a run of at most ticks Updates, one every period, carving their
// arrays from one (see stats.SlidingWindow.Reserve): a window then holds at
// most its span's worth of ticks live. Storage only: every mode and ε stays
// bit for bit what an unreserved controller computes.
func ReservePriorityControllers(pcs []PriorityController, period time.Duration, ticks int) {
	if len(pcs) == 0 || period <= 0 {
		return
	}
	peak := int(pcs[0].inWin.Span()/period) + 1
	slab := stats.NewWindowSlab(2*len(pcs), 0, peak, ticks)
	for i := range pcs {
		pcs[i].inWin.ReserveFrom(&slab)
		pcs[i].diffWin.ReserveFrom(&slab)
	}
}

// Update feeds one observation of input workload tin (req/s) and module
// throughput tm (req/s) at time now, and returns the mode to use.
func (p *PriorityController) Update(now time.Duration, tin, tm float64) Mode {
	// Smoothed workload T_s over the sliding window (before adding the new
	// sample so the deviation measures surprise).
	ts, ok := p.inWin.Mean(now)
	if !ok {
		ts = tin
	}
	p.inWin.Add(now, tin)
	diff := tin - ts
	if diff < 0 {
		diff = -diff
	}
	p.diffWin.Add(now, diff)

	eps := 0.0
	if !p.instant {
		sumIn := p.inWin.Sum(now)
		if sumIn > 0 {
			eps = p.diffWin.Sum(now) / sumIn
		}
		eps = min(max(eps, p.epsMin), p.epsMax)
	}

	mu := 0.0
	if tm > 0 {
		mu = tin / tm
	}
	p.lastMu, p.lastEps = mu, eps

	switch {
	case mu > 1+eps:
		if p.mode != HBF {
			p.switches++
		}
		p.mode = HBF
	case mu < 1-eps:
		if p.mode != LBF {
			p.switches++
		}
		p.mode = LBF
	}
	return p.mode
}

// Mode returns the current mode without updating.
func (p *PriorityController) Mode() Mode { return p.mode }

// Switches returns how many HBF↔LBF transitions have occurred; Fig. 13
// contrasts PARD's few transitions with PARD-instant's thrashing.
func (p *PriorityController) Switches() int { return p.switches }
