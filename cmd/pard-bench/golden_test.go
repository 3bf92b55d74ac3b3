package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pard"
)

// -update regenerates the golden files:
//
//	go test ./cmd/pard-bench -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d bytes, want %d).\n"+
			"The on-disk cache / reported-table format changed; if intentional, "+
			"bump sweep's diskFormat as needed and regenerate with -update.",
			name, len(got), len(want))
	}
}

// TestDiskCacheGolden pins the byte format of the sweep disk cache: one tiny
// deterministic run through a cache directory, then every persisted entry —
// the run Result with its metrics Collector, and the generated trace —
// concatenated in filename order. Any drift in the entry layout, the
// cache key grammar, the scope string, or the simulation itself shows up as
// a byte diff here instead of as silently mismatching caches in the field.
func TestDiskCacheGolden(t *testing.T) {
	cache := t.TempDir()
	eng := pard.NewSweepEngine(pard.SweepConfig{
		Workers:       1,
		BaseSeed:      1,
		TraceDuration: 5 * time.Second,
		CacheDir:      cache,
	})
	if err := eng.DiskError(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(pard.SweepSpec{App: "tm", Kind: pard.Steady, Policy: "pard"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total == 0 {
		t.Fatal("golden run produced no requests")
	}
	entries, err := filepath.Glob(filepath.Join(cache, "*.entry"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir holds no entries (err=%v)", err)
	}
	sort.Strings(entries)
	var blob bytes.Buffer
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&blob, "== %s %d\n", filepath.Base(path), len(data))
		blob.Write(data)
		blob.WriteByte('\n')
	}
	checkGolden(t, "diskcache.golden", blob.Bytes())
}

// TestReportedTableGolden pins pard-bench's rendered artifact output: the
// fig13 tables at smoke scale, extracted from a real invocation (wall-clock
// timing lines excluded), plus the CSV artifacts byte-for-byte.
func TestReportedTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-scale", "smoke", "-only", "fig13", "-out", dir}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	// Keep only the rendered tables: drop the header/footer lines that embed
	// wall-clock timings.
	var tables []string
	keep := false
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "# "):
			keep = true
		case line == "":
			keep = false
		}
		if keep {
			tables = append(tables, line)
		}
	}
	checkGolden(t, "fig13.tables.golden", []byte(strings.Join(tables, "\n")+"\n"))

	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSV artifacts written (err=%v)", err)
	}
	sort.Strings(csvs)
	var blob bytes.Buffer
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&blob, "== %s\n", filepath.Base(path))
		blob.Write(data)
	}
	checkGolden(t, "fig13.csv.golden", blob.Bytes())
}
