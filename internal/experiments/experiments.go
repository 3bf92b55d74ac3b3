// Package experiments regenerates every table and figure in the paper's
// evaluation (§5, §7). Each experiment is a named entry in a registry; the
// harness runs the underlying simulations (caching runs shared between
// figures), and renders the same rows/series the paper reports as text
// tables and CSV files.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not a 64-GPU testbed — but the shapes (who wins, by what factor, where
// crossovers fall) are the reproduction targets.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
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

// Table is one artifact (a paper table, or a figure's data series). Its rows
// hold cells, which keep their numbers until Render or CSV writes them.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]Cell
}

// Cell is one table entry: a number with the format it is shown in, or a
// text label (a workload, a policy, a percentile, "-"). Render and CSV are
// the only places a cell turns into bytes.
type Cell struct {
	// text is a label's text; a number has none.
	text string
	// v is the number in the unit shown: a pct cell holds the percent.
	v    float64
	prec int    // digits after the decimal point
	plus bool   // sign a positive number too ("+0.05x")
	unit string // written right after the number: "%", "s", "ms", "x" or ""
}

// String is the cell as a table shows it.
func (c Cell) String() string {
	if c.text != "" {
		return c.text
	}
	b := strconv.AppendFloat(make([]byte, 0, 24), c.v, 'f', c.prec, 64)
	if c.plus && b[0] != '-' && b[0] != '+' {
		b = append([]byte{'+'}, b...)
	}
	return string(append(b, c.unit...))
}

// Number returns the number the cell shows, in the unit shown (a "42.00%"
// cell reads 42, a "200ms" cell 200), rounded to its digits as its text
// reads; ok is false for a label.
func (c Cell) Number() (v float64, ok bool) {
	if c.text != "" {
		return 0, false
	}
	v, _ = strconv.ParseFloat(strconv.FormatFloat(c.v, 'f', c.prec, 64), 64)
	return v, true
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

// Label is a text cell: it is shown as s and has no number.
func Label(s string) Cell { return Cell{text: s} }

// Fixed is a number cell showing v with prec digits after the point, then
// unit ("7.5s"). The experiments' own formats follow; they are the one place
// a cell format is written.
func Fixed(v float64, prec int, unit string) Cell { return Cell{v: v, prec: prec, unit: unit} }

func pct(v float64) Cell { return Fixed(100*v, 2, "%") }
func f3(v float64) Cell  { return Fixed(v, 3, "") }
func f1(v float64) Cell  { return Fixed(v, 1, "") }

// whole shows an integer count, then unit ("200ms", "40s", "7").
func whole(n int64, unit string) Cell { return Fixed(float64(n), 0, unit) }

// secs shows a duration in seconds, with a tenth only when it has one.
func secs(d time.Duration) Cell {
	if d%time.Second == 0 {
		return Fixed(d.Seconds(), 0, "s")
	}
	return Fixed(d.Seconds(), 1, "s")
}

// change shows a relative change as a signed factor ("+0.05x").
func change(r float64) Cell { return Cell{v: r, prec: 2, plus: true, unit: "x"} }

// texts writes every row's cells once, for Render and CSV.
func (t *Table) texts() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = make([]string, len(row))
		for j, c := range row {
			rows[i][j] = c.String()
		}
	}
	return rows
}

// Render formats a table as aligned text.
func (t *Table) Render() string {
	rows := t.texts()
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range rows {
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
	for _, row := range rows {
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
	for _, row := range t.texts() {
		for i, c := range row {
			row[i] = esc(c)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
