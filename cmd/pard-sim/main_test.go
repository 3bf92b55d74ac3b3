package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pard/internal/dist"
)

func TestSpecFor(t *testing.T) {
	for _, app := range []string{"tm", "lv", "gm", "da", "da-dyn"} {
		if _, err := specFor(app); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	if _, err := specFor("bogus"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestListPolicies(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pard") || !strings.Contains(out.String(), "nexus") {
		t.Fatalf("-list output missing policies:\n%s", out.String())
	}
}

// TestCompareParallelDeterministic runs the four-system comparison twice —
// sequentially and with a worker pool — and requires identical reports.
func TestCompareParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	args := []string{"-app", "tm", "-trace", "steady", "-duration", "30s",
		"-seed", "5", "-compare"}
	var seq, par, errb bytes.Buffer
	if err := run(append(args, "-parallel", "1"), &seq, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-parallel", "4"), &par, &errb); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("parallel compare diverged:\n--- sequential\n%s--- parallel\n%s", seq.String(), par.String())
	}
	for _, pol := range []string{"pard", "nexus", "clipper++", "naive"} {
		if !strings.Contains(seq.String(), pol) {
			t.Fatalf("comparison missing %s:\n%s", pol, seq.String())
		}
	}
}

// TestFlagExclusions pins the topology flag surface: there is no spoke mode —
// a lane group is served by pard-worker -listen — no shard count and no
// in-process lane groups: -hosts is the way to spread one run, -parallel the
// way to spread many, and -hosts with -compare is refused.
func TestFlagExclusions(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"-join-sim", ":0"}, {"-shards", "2"}, {"-groups", "2"}} {
		if err := run(args, &out, &errb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: %v, want the flag package's undefined-flag error", args[0], err)
		}
	}
	if err := run([]string{"-hosts", "x:1", "-compare"}, &out, &errb); err == nil {
		t.Fatal("-hosts with -compare accepted")
	}
}

// TestWindowRefusedAtParse: a -window the collector cannot fold from its
// 250 ms buckets is an error naming the flag, returned before the trace is
// built or anything is simulated (nothing reaches stdout).
func TestWindowRefusedAtParse(t *testing.T) {
	for _, w := range []string{"0", "-24s", "100ms", "24.1s"} {
		var out, errb bytes.Buffer
		err := run([]string{"-app", "tm", "-trace", "steady", "-duration", "2s", "-window", w}, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), "-window") || !strings.Contains(err.Error(), "multiple of 250ms") {
			t.Fatalf("-window %s: %v, want an error naming the flag and the base", w, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-window %s: printed %q before refusing", w, out.String())
		}
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-app", "tm", "-trace", "steady", "-duration", "2s", "-window", "750ms"}, &out, &errb); err != nil {
		t.Fatalf("-window 750ms: %v", err)
	}
}

// TestDistributedCLI is the command-level slice of determinism invariant
// #5: the same simulation run flat and distributed across a pard-sim hub
// plus a lane group served the way pard-worker -listen serves it
// (dist.Serve) over loopback TCP must print the identical report.
func TestDistributedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := []string{"-app", "lv", "-trace", "tweet", "-duration", "20s", "-seed", "9"}

	var flat, errb bytes.Buffer
	if err := run(base, &flat, &errb); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- dist.Serve(l, dist.WorkerConfig{}) }()
	var hubOut bytes.Buffer
	if err := run(append(base, "-hosts", l.Addr().String()), &hubOut, &errb); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := <-served; err != nil {
		t.Fatalf("the lane group's listener exited with %v", err)
	}
	if hubOut.String() != flat.String() {
		t.Fatalf("-hosts diverged from the flat run:\n--- flat\n%s--- hosts\n%s", flat.String(), hubOut.String())
	}
}

// TestHeaderNamesTraceAndPeak: the header line summarizes the trace the run
// used — its name, request count, mean and peak rate.
func TestHeaderNamesTraceAndPeak(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-app", "tm", "-trace", "fixed", "-rate", "100", "-duration", "5s"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(out.String(), "\n")
	if want := "workload tm-fixed: 500 requests, mean 100.0 req/s, peak 100 req/s, SLO 400ms"; header != want {
		t.Fatalf("header %q, want %q", header, want)
	}
}

// TestTraceCSVReplay: the trace -trace-csv writes, replayed with -trace
// <file>, prints the same report byte for byte, one policy or four.
func TestTraceCSVReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tweet.csv")
	for _, extra := range [][]string{nil, {"-compare"}} {
		var gen, replay, errb bytes.Buffer
		if err := run(append([]string{"-app", "tm", "-trace", "tweet", "-duration", "60s", "-trace-csv", path}, extra...), &gen, &errb); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-app", "tm", "-trace", path}, extra...), &replay, &errb); err != nil {
			t.Fatal(err)
		}
		if gen.String() != replay.String() {
			t.Fatalf("replay of %s diverged:\n--- generated\n%s--- replayed\n%s", path, gen.String(), replay.String())
		}
	}
}

// TestTraceRefused: an argument that is neither a kind nor a readable trace
// CSV is refused with the file and line, before anything is printed.
func TestTraceRefused(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("0.5\n1e20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for arg, want := range map[string]string{
		"bogus": `"bogus" is neither a kind`,
		bad:     bad + ":2: ",
	} {
		var out, errb bytes.Buffer
		err := run([]string{"-app", "tm", "-trace", arg}, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), want) || out.Len() != 0 {
			t.Fatalf("-trace %s: %v (printed %q), want an error containing %q", arg, err, out.String(), want)
		}
	}
}
