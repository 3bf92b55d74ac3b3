package main

import (
	"bytes"
	"net"
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

// TestFlagExclusions pins the topology flag surface: in-process-vs-cross-host
// combinations are refused with clear errors, there is no spoke mode — a
// lane group is served by pard-worker -listen — and no shard count: -groups
// and -hosts are the ways to spread a run, -parallel the one that pays.
func TestFlagExclusions(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"-join-sim", ":0"}, {"-shards", "2"}} {
		if err := run(args, &out, &errb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: %v, want the flag package's undefined-flag error", args[0], err)
		}
	}
	if err := run([]string{"-hosts", "x:1", "-groups", "2"}, &out, &errb); err == nil {
		t.Fatal("-hosts with -groups accepted")
	}
	if err := run([]string{"-hosts", "x:1", "-compare"}, &out, &errb); err == nil {
		t.Fatal("-hosts with -compare accepted")
	}
}

// TestDistributedCLI is the command-level slice of determinism invariant
// #5: the same simulation run flat, with in-process lane groups, and
// distributed across a pard-sim hub plus a lane group served the way
// pard-worker -listen serves it (dist.Serve) over loopback TCP must print the
// identical report.
func TestDistributedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := []string{"-app", "lv", "-trace", "tweet", "-duration", "20s", "-seed", "9"}

	var flat, grouped bytes.Buffer
	var errb bytes.Buffer
	if err := run(base, &flat, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-groups", "3"), &grouped, &errb); err != nil {
		t.Fatal(err)
	}
	if flat.String() != grouped.String() {
		t.Fatalf("-groups diverged:\n--- flat\n%s--- groups\n%s", flat.String(), grouped.String())
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
