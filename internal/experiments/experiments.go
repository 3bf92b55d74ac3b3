// Package experiments regenerates every table and figure in the paper's
// evaluation (§5, §7). Each experiment is a named entry in a registry; the
// harness runs the underlying simulations (caching runs shared between
// figures), and renders the same rows/series the paper reports as text
// tables and CSV files.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not a 64-GPU testbed — but the shapes (who wins, by what factor, where
// crossovers fall) are the reproduction targets; EXPERIMENTS.md records
// paper-vs-measured for each artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// Scale selects how much virtual time each workload covers.
type Scale string

// Scales.
const (
	// Smoke is for unit tests: minutes of virtual time.
	Smoke Scale = "smoke"
	// Quick is the default benchmarking scale.
	Quick Scale = "quick"
	// Full replays paper-length traces.
	Full Scale = "full"
)

// traceDuration maps scale to virtual trace length.
func traceDuration(s Scale) time.Duration {
	switch s {
	case Smoke:
		return 120 * time.Second
	case Full:
		return 1400 * time.Second
	default:
		return 300 * time.Second
	}
}

// Table is one rendered artifact (a paper table, or a figure's data series).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Output is everything one experiment produces.
type Output struct {
	Tables []Table
	Notes  []string
}

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  int64
	// Parallel bounds concurrent simulation runs when a generator submits
	// a grid (0 = runtime.NumCPU(), 1 = sequential). Any value produces
	// identical outputs at a fixed seed; it only changes wall-clock time.
	Parallel int
	// OnProgress, when set, receives one callback per finished grid run.
	OnProgress func(sweep.Progress)
	// CacheDir, when set, persists finished simulation runs to disk so
	// repeated invocations reuse finished grid points (see sweep.Config).
	CacheDir string
	// Logf, when set, receives cache-maintenance logging (see sweep.Config).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Scale == "" {
		c.Scale = Quick
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Experiment is a registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) (*Output, error)
}

// Harness executes experiments on a parallel sweep engine whose cache of
// simulation runs lets figures sharing workloads (e.g. Figs. 8-10) avoid
// recomputing them.
type Harness struct {
	cfg Config
	eng *sweep.Engine
}

// NewHarness returns a harness for the config.
func NewHarness(cfg Config) *Harness {
	cfg = cfg.withDefaults()
	return &Harness{
		cfg: cfg,
		eng: sweep.New(sweep.Config{
			Workers:       cfg.Parallel,
			BaseSeed:      cfg.Seed,
			TraceDuration: traceDuration(cfg.Scale),
			OnProgress:    cfg.OnProgress,
			CacheDir:      cfg.CacheDir,
			Logf:          cfg.Logf,
		}),
	}
}

// Config returns the effective configuration.
func (h *Harness) Config() Config { return h.cfg }

// Engine exposes the underlying sweep engine (for generic, non-simgpu
// jobs such as the RAG case study).
func (h *Harness) Engine() *sweep.Engine { return h.eng }

// Distribute routes the harness's grid sweeps through d — e.g. a
// dist.Coordinator fanning units out to remote worker processes — instead
// of the in-process pool. Results are unchanged by construction (per-unit
// seed derivation), so every figure regenerates byte-identically however
// the cluster is shaped; single Run calls still execute locally and share
// the same cache. Pass nil to restore in-process execution.
func (h *Harness) Distribute(d sweep.Distributor) { h.eng.SetDistributor(d) }

// Trace returns (and caches) the synthetic trace for a workload kind at the
// harness scale.
func (h *Harness) Trace(kind trace.Kind) *trace.Trace {
	tr, err := h.eng.Trace(kind)
	if err != nil {
		panic(err) // built-in kinds always generate
	}
	return tr
}

// RunOpts tweaks a single simulation beyond app/trace/policy.
type RunOpts = sweep.RunOpts

// Spec identifies one grid point of a sweep.
type Spec = sweep.Spec

// Run executes (or retrieves from cache) one simulation.
func (h *Harness) Run(app string, kind trace.Kind, policy string, opts RunOpts) (*simgpu.Result, error) {
	return h.eng.Run(Spec{App: app, Kind: kind, Policy: policy, Opts: opts})
}

// Sweep executes a grid of specs concurrently and returns results in input
// order; see sweep.Engine.Sweep for the determinism contract.
func (h *Harness) Sweep(specs []Spec) ([]*simgpu.Result, error) {
	return h.eng.Sweep(specs)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists registered experiment IDs.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// formatting helpers

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func secs(d time.Duration) string {
	if d%time.Second == 0 {
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// Render formats a table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
