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

// PriorityConfig parameterizes the adaptive controller.
type PriorityConfig struct {
	// Window is the horizon over which the workload is smoothed and the
	// hysteresis boundary ε is computed (the paper's 5 s default, §5.4).
	Window time.Duration
	// Instant disables delayed transition (ε = 0): the PARD-instant
	// ablation.
	Instant bool
	// Fixed pins the mode permanently (PARD-HBF / PARD-LBF ablations).
	Fixed *Mode
	// EpsMin floors ε so micro-noise cannot force a transition exactly at
	// μ = 1 even on perfectly steady workloads.
	EpsMin float64
	// EpsMax caps ε so extreme bursts cannot freeze the controller.
	EpsMax float64
}

// DefaultPriorityConfig returns PARD's configuration.
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{Window: 5 * time.Second, EpsMin: 0.02, EpsMax: 0.25}
}

// FixedMode returns a PriorityConfig pinning the controller to mode m.
func FixedMode(m Mode) PriorityConfig {
	c := DefaultPriorityConfig()
	c.Fixed = &m
	return c
}

// PriorityController implements the delayed adaptive priority transition:
// switch to HBF when μ > 1+ε, to LBF when μ < 1−ε, hold otherwise, with
// ε = Σ|T_in − T_s| / ΣT_in computed over the smoothing window so bursty
// workloads widen the hysteresis band (§4.3).
type PriorityController struct {
	cfg      PriorityConfig
	mode     Mode
	inWin    *stats.SlidingWindow // raw T_in samples
	diffWin  *stats.SlidingWindow // |T_in − T_s| samples
	lastMu   float64
	lastEps  float64
	switches int
}

// NewPriorityController returns a controller starting in LBF (steady-state
// assumption).
func NewPriorityController(cfg PriorityConfig) *PriorityController {
	if cfg.Window <= 0 {
		panic(fmt.Sprintf("core: priority window must be positive, got %v", cfg.Window))
	}
	if cfg.EpsMin < 0 || cfg.EpsMax < cfg.EpsMin {
		panic(fmt.Sprintf("core: bad eps bounds [%v, %v]", cfg.EpsMin, cfg.EpsMax))
	}
	return &PriorityController{
		cfg:     cfg,
		mode:    LBF,
		inWin:   stats.NewSlidingWindow(cfg.Window),
		diffWin: stats.NewSlidingWindow(cfg.Window),
	}
}

// Update feeds one observation of input workload tin (req/s) and module
// throughput tm (req/s) at time now, and returns the mode to use.
func (p *PriorityController) Update(now time.Duration, tin, tm float64) Mode {
	if p.cfg.Fixed != nil {
		p.mode = *p.cfg.Fixed
		return p.mode
	}
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
	if !p.cfg.Instant {
		sumIn := p.inWin.Sum(now)
		if sumIn > 0 {
			eps = p.diffWin.Sum(now) / sumIn
		}
		if eps < p.cfg.EpsMin {
			eps = p.cfg.EpsMin
		}
		if eps > p.cfg.EpsMax {
			eps = p.cfg.EpsMax
		}
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
