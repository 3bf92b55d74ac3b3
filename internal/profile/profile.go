// Package profile models offline DNN profiling (§5.1): per-model execution
// duration and throughput as a function of batch size. PARD, like Nexus and
// Clockwork, treats models as opaque latency curves obtained by profiling;
// the curves here follow the affine d(b) = α + β·b form that GPU batch
// execution exhibits, with an optional multiplicative jitter applied by the
// simulator at execution time.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Model is one DNN model's offline profile.
type Model struct {
	// Name identifies the model in the application library.
	Name string `json:"name"`
	// Alpha is the fixed per-batch overhead (kernel launch, pre/post).
	Alpha time.Duration `json:"alpha_ns"`
	// Beta is the marginal cost per batched request.
	Beta time.Duration `json:"beta_ns"`
	// MaxBatch caps the feasible batch size (GPU memory bound).
	MaxBatch int `json:"max_batch"`
	// JitterPct is the ± percentage of multiplicative execution-time noise
	// the simulator applies (0 disables; profiling reports the mean).
	JitterPct float64 `json:"jitter_pct,omitempty"`
}

// Validate reports configuration errors.
func (m Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("profile: model name empty")
	case m.Alpha < 0:
		return fmt.Errorf("profile: model %s: negative alpha %v", m.Name, m.Alpha)
	case m.Beta <= 0:
		return fmt.Errorf("profile: model %s: beta must be positive, got %v", m.Name, m.Beta)
	case m.MaxBatch < 1:
		return fmt.Errorf("profile: model %s: max batch %d < 1", m.Name, m.MaxBatch)
	case m.JitterPct < 0 || m.JitterPct > 0.5:
		return fmt.Errorf("profile: model %s: jitter %v outside [0, 0.5]", m.Name, m.JitterPct)
	}
	return nil
}

// Duration returns the profiled execution duration at batch size b, clamped
// to [1, MaxBatch].
func (m Model) Duration(b int) time.Duration {
	if b < 1 {
		b = 1
	}
	if b > m.MaxBatch {
		b = m.MaxBatch
	}
	return m.Alpha + time.Duration(b)*m.Beta
}

// Throughput returns requests/second sustained at batch size b.
func (m Model) Throughput(b int) float64 {
	d := m.Duration(b)
	if d <= 0 {
		return 0
	}
	if b > m.MaxBatch {
		b = m.MaxBatch
	}
	if b < 1 {
		b = 1
	}
	return float64(b) / d.Seconds()
}

// BestBatch returns the largest batch size whose execution duration fits
// within budget, or 0 when even batch size 1 does not fit. Serving systems
// use it to pick the per-module target batch size from an SLO share.
func (m Model) BestBatch(budget time.Duration) int {
	if m.Duration(1) > budget {
		return 0
	}
	// Invert the affine curve, then clamp; avoids a linear scan.
	b := int(math.Floor(float64(budget-m.Alpha) / float64(m.Beta)))
	if b > m.MaxBatch {
		b = m.MaxBatch
	}
	for b > 1 && m.Duration(b) > budget {
		b--
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Library is a named collection of model profiles, as produced by an offline
// profiling pass.
type Library struct {
	Models map[string]Model `json:"models"`
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{Models: map[string]Model{}} }

// Fingerprint returns a stable, order-independent hash of the library's
// contents (model names and curve parameters). Two processes whose
// libraries fingerprint equally simulate identical latency curves — the
// check distributed sweeps use to refuse a peer whose profiles would
// silently produce divergent results.
func (l *Library) Fingerprint() uint64 {
	names := make([]string, 0, len(l.Models))
	for name := range l.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	// FNV-64a of "name|alpha|beta|maxbatch|jitter\x00" per model, as
	// fmt.Fprintf would print it, hashed inline over a stack buffer instead of
	// through a formatter and a heap hasher.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	var buf [96]byte // a separator, three decimal int64s and a float each
	for _, name := range names {
		m := l.Models[name]
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * prime64
		}
		b := append(buf[:0], '|')
		b = strconv.AppendInt(b, int64(m.Alpha), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(m.Beta), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(m.MaxBatch), 10)
		b = append(b, '|')
		b = strconv.AppendFloat(b, m.JitterPct, 'g', -1, 64)
		for _, c := range append(b, 0) {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// Add validates and registers a model, rejecting duplicates.
func (l *Library) Add(m Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := l.Models[m.Name]; ok {
		return fmt.Errorf("profile: duplicate model %q", m.Name)
	}
	l.Models[m.Name] = m
	return nil
}

// Get returns the named model.
func (l *Library) Get(name string) (Model, error) {
	m, ok := l.Models[name]
	if !ok {
		return Model{}, fmt.Errorf("profile: unknown model %q", name)
	}
	return m, nil
}

// Save writes the library as JSON.
func (l *Library) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// Load parses a library from JSON and validates every model.
func Load(r io.Reader) (*Library, error) {
	var l Library
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if l.Models == nil {
		l.Models = map[string]Model{}
	}
	for name, m := range l.Models {
		if m.Name == "" {
			m.Name = name
			l.Models[name] = m
		}
		if m.Name != name {
			return nil, fmt.Errorf("profile: key %q names model %q", name, m.Name)
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return &l, nil
}

// Scaled returns a copy of the library with every model's α and β
// multiplied by factor (e.g. 0.05 for a 20× faster demo deployment).
func (l *Library) Scaled(factor float64) (*Library, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("profile: scale factor must be positive, got %v", factor)
	}
	out := NewLibrary()
	for _, m := range l.Models {
		s := m
		s.Alpha = time.Duration(float64(m.Alpha) * factor)
		s.Beta = time.Duration(float64(m.Beta) * factor)
		if s.Beta < time.Microsecond {
			s.Beta = time.Microsecond
		}
		if err := out.Add(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Default returns the process's one copy of DefaultLibrary, built at the
// first call and shared by every deployment that names no library. It must
// not be changed: a caller that adds models starts from DefaultLibrary.
func Default() *Library { return defaultLibrary() }

var defaultLibrary = sync.OnceValue(DefaultLibrary)

// DefaultLibrary returns a new library of the model profiles used by the
// paper's four applications (§5.1), which the caller may add to. Absolute
// numbers are calibrated for 2080Ti-class throughput so each pipeline can
// meet its SLO at moderate batch sizes.
func DefaultLibrary() *Library {
	l := NewLibrary()
	// Per-worker throughput is calibrated to tens of req/s at the target
	// batch size so the paper's 100-600 req/s traces need multi-worker pools
	// per module (the 64-GPU-cluster regime) and workload bursts genuinely
	// exceed capacity until the scaling engine catches up.
	models := []Model{
		// tm: traffic monitoring (3 modules, SLO 400 ms)
		{Name: "objdet", Alpha: 18 * time.Millisecond, Beta: 6 * time.Millisecond, MaxBatch: 16},
		{Name: "facerec", Alpha: 14 * time.Millisecond, Beta: 5 * time.Millisecond, MaxBatch: 16},
		{Name: "textrec", Alpha: 15 * time.Millisecond, Beta: 5500 * time.Microsecond, MaxBatch: 16},
		// lv: live video analysis (5 modules, SLO 500 ms)
		{Name: "persondet", Alpha: 16 * time.Millisecond, Beta: 5500 * time.Microsecond, MaxBatch: 16},
		{Name: "exprrec", Alpha: 12 * time.Millisecond, Beta: 4500 * time.Microsecond, MaxBatch: 16},
		{Name: "eyetrack", Alpha: 11 * time.Millisecond, Beta: 4 * time.Millisecond, MaxBatch: 16},
		{Name: "poserec", Alpha: 14 * time.Millisecond, Beta: 5 * time.Millisecond, MaxBatch: 16},
		// gm: game analysis (5 modules, SLO 600 ms)
		{Name: "gameobj", Alpha: 19 * time.Millisecond, Beta: 6500 * time.Microsecond, MaxBatch: 16},
		{Name: "killdet", Alpha: 13 * time.Millisecond, Beta: 4500 * time.Microsecond, MaxBatch: 16},
		{Name: "alivecount", Alpha: 11 * time.Millisecond, Beta: 4 * time.Millisecond, MaxBatch: 16},
		{Name: "healthval", Alpha: 11 * time.Millisecond, Beta: 4 * time.Millisecond, MaxBatch: 16},
		{Name: "iconrec", Alpha: 12 * time.Millisecond, Beta: 4500 * time.Microsecond, MaxBatch: 16},
	}
	for _, m := range models {
		if err := l.Add(m); err != nil {
			panic(err) // static table; unreachable
		}
	}
	return l
}
