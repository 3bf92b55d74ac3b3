package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pard"
	"pard/internal/dist"
	"pard/internal/experiments"
)

func TestListExperiments(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig8", "fig13", "dag-dynamic"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("-list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-scale", "bogus"}, &out, &errb); err == nil {
		t.Fatal("bogus scale accepted")
	}
	if err := run([]string{"-only", "nope"}, &out, &errb); err == nil {
		t.Fatal("unknown -only accepted")
	}
	// An unknown ID is refused by name, before a known one beside it runs.
	out.Reset()
	err := run([]string{"-scale", "smoke", "-only", "fig14b,fig14x"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), `"fig14x"`) {
		t.Fatalf("-only fig14b,fig14x: %v, want an error naming fig14x", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-only fig14b,fig14x ran before refusing:\n%s", out.String())
	}
	for _, args := range [][]string{{"-shards", "2"}, {"-speculate-after", "1s"}} {
		if err := run(args, &out, &errb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: %v, want the flag package's undefined-flag error", args[0], err)
		}
	}
}

// TestSmokeRun regenerates one cheap artifact end-to-end in parallel mode,
// writing CSVs, and checks the rendered output.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	err := run([]string{"-scale", "smoke", "-only", "fig13", "-parallel", "2",
		"-progress", "-out", dir}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig13-switches") {
		t.Fatalf("output missing fig13-switches table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ran 1 experiments") {
		t.Fatalf("output missing run summary:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "[1/") {
		t.Fatalf("-progress produced no progress lines:\n%s", errb.String())
	}
	csv, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csv) == 0 {
		t.Fatalf("no CSVs written to -out (err=%v)", err)
	}
}

// TestCacheDirRoundTrip runs the same artifact twice against one cache
// directory: the warm invocation must report disk hits and produce
// byte-identical CSV artifacts without recomputing any simulation.
func TestCacheDirRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	cache := t.TempDir()
	outs := [2]string{t.TempDir(), t.TempDir()}
	errbs := [2]bytes.Buffer{}
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		err := run([]string{"-scale", "smoke", "-only", "fig13", "-parallel", "2",
			"-out", outs[i], "-cache-dir", cache}, &out, &errbs[i])
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
	if !strings.Contains(errbs[0].String(), "0 disk hits") {
		t.Fatalf("cold run claimed disk hits:\n%s", errbs[0].String())
	}
	warm := errbs[1].String()
	if !strings.Contains(warm, "disk hits") || strings.Contains(warm, "0 disk hits") {
		t.Fatalf("warm run reported no disk hits:\n%s", warm)
	}
	csvs, err := filepath.Glob(filepath.Join(outs[0], "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSVs from cold run (err=%v)", err)
	}
	for _, path := range csvs {
		cold, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := os.ReadFile(filepath.Join(outs[1], filepath.Base(path)))
		if err != nil {
			t.Fatalf("warm run missing %s: %v", filepath.Base(path), err)
		}
		if !bytes.Equal(cold, hot) {
			t.Fatalf("%s differs between cold and warm runs", filepath.Base(path))
		}
	}
}

// syncBuffer guards concurrent writes: in distributed mode the coordinator
// logs from its connection goroutines while run() writes from the main one.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistributedRunMatchesLocal is the CLI face of the distributed
// differential harness: pard-bench -workers against two real pard-worker
// TCP listeners must produce stdout byte-identical to the plain in-process
// run of the same artifact, and must actually dispatch units remotely.
func TestDistributedRunMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
		go dist.Serve(l, dist.WorkerConfig{Workers: 2})
	}

	var local, distributed bytes.Buffer
	var errb syncBuffer
	if err := run([]string{"-scale", "smoke", "-only", "fig13"}, &local, &errb); err != nil {
		t.Fatal(err)
	}
	errb = syncBuffer{}
	err := run([]string{"-scale", "smoke", "-only", "fig13",
		"-workers", strings.Join(addrs, ",")}, &distributed, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "distributing sweeps across 2 worker(s)") {
		t.Fatalf("distributed mode not engaged:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "units dispatched") {
		t.Fatalf("no cluster accounting reported:\n%s", errb.String())
	}
	// Strip the wall-clock timing lines; everything else must match the
	// local run byte for byte.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "=== ") || strings.HasPrefix(line, "ran ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(local.String()) != strip(distributed.String()) {
		t.Fatalf("distributed artifacts differ from local:\n--- local\n%s\n--- distributed\n%s",
			local.String(), distributed.String())
	}
}

func TestUnreachableWorkerRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-scale", "smoke", "-only", "fig13",
		"-workers", "127.0.0.1:1"}, &out, &errb); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

func TestChartFromTable(t *testing.T) {
	for _, unit := range []string{"s", "ms", ""} {
		tab := pard.ExperimentTable{Title: "t", Columns: []string{"x", "v"}}
		for i := range 4 {
			x := float64(200 * (i + 1))
			tab.Rows = append(tab.Rows, []pard.ExperimentCell{
				experiments.Fixed(x, 0, unit), experiments.Fixed(float64(i)/3, 2, "%"),
			})
		}
		chart, ok := chartFromTable(tab)
		if !ok {
			t.Fatalf("numeric series with x unit %q not charted", unit)
		}
		// The x axis spans the numbers the cells show, 200 to 800.
		if !strings.Contains(chart, "200") || !strings.Contains(chart, "800") {
			t.Fatalf("x unit %q: axis does not span 200..800:\n%s", unit, chart)
		}
		tab.Rows[0][0] = experiments.Label("lv-tweet")
		if _, ok := chartFromTable(tab); ok {
			t.Fatalf("x unit %q: a label in the first column charted", unit)
		}
	}
}
