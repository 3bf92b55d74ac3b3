package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pard/internal/sweep"
	"pard/internal/trace"
)

func smokeHarness() *Harness { return NewHarness(Config{Scale: Smoke, Seed: 1}) }

func TestRegistryCoversPaperArtifacts(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig2d", "fig6",
		"fig8", "fig9", "fig10", "fig11",
		"fig12a", "fig12b", "fig12c", "fig12d", "fig13",
		"fig14a", "fig14b", "fig14c", "fig14d",
		"fig15a", "fig15b", "dag-dynamic",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("missing experiment %s (have %v)", id, ids)
		}
	}
	if _, err := Get("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("bogus"); err == nil {
		t.Fatal("unknown experiment found")
	}
}

// update rewrites the pinned smoke digests from this run.
var update = flag.Bool("update", false, "rewrite testdata/"+smokeDigests+" from this run")

// smokeDigests pins, per table of the seed-1 smoke run, the SHA-256 of its
// rendering and of its CSV: one "experiment/table render csv" line each.
const smokeDigests = "smoke-seed1.digests"

// TestAllExperimentsProduceOutput runs every registered experiment at smoke
// scale and checks the artifacts are structurally sound. This doubles as the
// integration test of the whole stack (trace → simgpu → policy → metrics).
// Every table's rendering and CSV must also hash as pinned in testdata, so a
// table that moves fails here by name; -update re-pins them.
func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment sweep skipped in -short")
	}
	path := filepath.Join("testdata", smokeDigests)
	raw, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if key, digests, ok := strings.Cut(line, " "); ok {
			pinned[key] = digests
		}
	}
	// A run of some experiments (-run) checks and re-pins only their tables.
	got, ran := map[string]string{}, map[string]bool{}
	h := smokeHarness()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ran[e.ID] = true
			out, err := e.Run(h)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(out.Tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tab := range out.Tables {
				if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("%s: table %s empty", e.ID, tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s: table %s row width %d != %d cols",
							e.ID, tab.ID, len(row), len(tab.Columns))
					}
				}
				if !strings.Contains(tab.Render(), tab.ID) {
					t.Fatalf("%s: render missing ID", e.ID)
				}
				if !strings.Contains(tab.CSV(), tab.Columns[0]) {
					t.Fatalf("%s: CSV missing header", e.ID)
				}
				key := e.ID + "/" + tab.ID
				got[key] = fmt.Sprintf("%x %x", sha256.Sum256([]byte(tab.Render())), sha256.Sum256([]byte(tab.CSV())))
				if want, ok := pinned[key]; !*update && got[key] != want {
					t.Errorf("table %s moved: render and CSV digests %s, pinned %q (ok=%v)", key, got[key], want, ok)
				}
			}
		})
	}
	var lines []string // the digests file after this run
	for key, digests := range pinned {
		experiment, _, _ := strings.Cut(key, "/")
		switch _, produced := got[key]; {
		case !ran[experiment]:
			lines = append(lines, key+" "+digests)
		case !produced && !*update:
			t.Errorf("pinned table %s was not produced", key)
		}
	}
	if *update {
		for key, digests := range got {
			lines = append(lines, key+" "+digests)
		}
		slices.Sort(lines)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig8Shape checks the headline claim on the lv-tweet row: PARD's drop
// and invalid rates are the lowest of the four systems.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	h := smokeHarness()
	out, err := fig8(h)
	if err != nil {
		t.Fatal(err)
	}
	drop := out.Tables[0]
	// Columns: workload, pard, nexus, clipper++, naive.
	for _, row := range drop.Rows {
		if row[0].String() != "lv-tweet" {
			continue
		}
		pard, nexus, naive := number(t, row[1]), number(t, row[2]), number(t, row[4])
		if pard > nexus {
			t.Fatalf("pard drop %.2f%% > nexus %.2f%% on lv-tweet", pard, nexus)
		}
		if pard > naive {
			t.Fatalf("pard drop %.2f%% > naive %.2f%% on lv-tweet", pard, naive)
		}
		return
	}
	t.Fatal("lv-tweet row missing")
}

// TestFig13Shape checks PARD-instant switches priorities more than PARD.
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	h := smokeHarness()
	out, err := fig13(h)
	if err != nil {
		t.Fatal(err)
	}
	var switches Table
	for _, tab := range out.Tables {
		if tab.ID == "fig13-switches" {
			switches = tab
		}
	}
	count := map[string]float64{}
	for _, row := range switches.Rows {
		count[row[0].String()] = number(t, row[1])
	}
	pard, okPard := count["pard"]
	instant, okInstant := count["pard-instant"]
	if !okPard || !okInstant {
		t.Fatalf("switch table lacks a pard or pard-instant row: %v", switches.Rows)
	}
	if instant < pard {
		t.Fatalf("pard-instant switched %v times, pard %v — expected instant >= pard", instant, pard)
	}
}

// number reads the number a cell shows, failing on a label.
func number(t *testing.T, c Cell) float64 {
	t.Helper()
	v, ok := c.Number()
	if !ok {
		t.Fatalf("cell %q is not a number", c)
	}
	return v
}

// renderAll flattens an experiment output for byte comparison.
func renderAll(out *Output) string {
	var b strings.Builder
	for _, tab := range out.Tables {
		b.WriteString(tab.Render())
		b.WriteString(tab.CSV())
	}
	for _, n := range out.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelHarnessMatchesSequential checks the harness-level determinism
// contract: a parallel harness renders byte-identical artifacts to a
// sequential one at the same seed.
func TestParallelHarnessMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	for _, id := range []string{"fig2c", "fig13", "ext-failure"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		seqOut, err := e.Run(NewHarness(Config{Scale: Smoke, Seed: 3, Parallel: 1}))
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		parOut, err := e.Run(NewHarness(Config{Scale: Smoke, Seed: 3, Parallel: 8}))
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		seq, par := renderAll(seqOut), renderAll(parOut)
		if seq != par {
			t.Fatalf("%s: parallel output diverged from sequential\n--- sequential\n%s\n--- parallel\n%s", id, seq, par)
		}
	}
}

func TestProgressReported(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var done int
	h := NewHarness(Config{Scale: Smoke, Seed: 1, Parallel: 4,
		OnProgress: func(p sweep.Progress) { done = p.Done }})
	if _, err := fig13(h); err != nil {
		t.Fatal(err)
	}
	// fig13 executes 2 simulation runs plus 1 trace synthesis (lv-tweet).
	if done != 3 {
		t.Fatalf("progress reported %d done artifacts, want 3", done)
	}
	// Re-running the experiment is all cache hits: no further callbacks.
	if _, err := fig13(h); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("cache hits reported as progress: %d done artifacts, want 3", done)
	}
}

func TestTraceCaching(t *testing.T) {
	h := smokeHarness()
	a := h.Trace(trace.Tweet)
	b := h.Trace(trace.Tweet)
	if a != b {
		t.Fatal("trace not cached")
	}
}

func TestRunCaching(t *testing.T) {
	h := smokeHarness()
	a, err := h.Run("tm", trace.Wiki, "pard", RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run("tm", trace.Wiki, "pard", RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("run not cached")
	}
	c, err := h.Run("tm", trace.Wiki, "nexus", RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different policy hit the same cache entry")
	}
}

func TestUnknownApp(t *testing.T) {
	h := smokeHarness()
	if _, err := h.Run("bogus", trace.Wiki, "pard", RunOpts{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTableRenderAndCSVEscaping(t *testing.T) {
	tab := Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]Cell{{Label("1,2"), Label(`say "hi"`)}},
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"1,2"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Fatalf("CSV escaping broken: %s", csv)
	}
	if !strings.Contains(tab.Render(), "a") {
		t.Fatal("render missing column")
	}
}

// TestCellFormat checks each cell constructor writes what the fmt verb it
// stands for writes, and reads back the number that text shows.
func TestCellFormat(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		c    Cell
		want string
		num  float64 // NaN: the cell reads NaN; ignored for a label
		ok   bool
	}{
		{pct(0.42356), fmt.Sprintf("%.2f%%", 100*0.42356), 42.36, true},
		{pct(0), "0.00%", 0, true},
		{pct(nan), fmt.Sprintf("%.2f%%", nan), nan, true},
		{f3(-0.0004), fmt.Sprintf("%.3f", -0.0004), 0, true},
		{f3(inf), fmt.Sprintf("%.3f", inf), inf, true},
		{f1(123.45), fmt.Sprintf("%.1f", 123.45), 123.5, true},
		{secs(120 * time.Second), "120s", 120, true},
		{secs(7500 * time.Millisecond), "7.5s", 7.5, true},
		{Fixed(2.25, 1, "s"), fmt.Sprintf("%.1fs", 2.25), 2.2, true},
		{whole(200, "ms"), "200ms", 200, true},
		{whole(7, ""), fmt.Sprintf("%d", 7), 7, true},
		{change(0.05), fmt.Sprintf("%+.2fx", 0.05), 0.05, true},
		{change(-0.104), fmt.Sprintf("%+.2fx", -0.104), -0.1, true},
		{change(nan), fmt.Sprintf("%+.2fx", nan), nan, true},
		{Label("p10"), "p10", 0, false},
		{Label("-"), "-", 0, false},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%+v: String() = %q, want %q", tc.c, got, tc.want)
		}
		v, ok := tc.c.Number()
		if ok != tc.ok || ok && v != tc.num && !(math.IsNaN(v) && math.IsNaN(tc.num)) {
			t.Errorf("%q: Number() = %v, %v, want %v, %v", tc.want, v, ok, tc.num, tc.ok)
		}
	}
}
