package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pard
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkShardedDAClassic    	       1	 850118736 ns/op	    705214 events/s	         1.000 gomaxprocs	239101128 B/op	 2471766 allocs/op
BenchmarkShardedDASequential-8 	       5	 811013137 ns/op	213956880 B/op	  673436 allocs/op
PASS
ok  	pard	2.480s
`

func TestParse(t *testing.T) {
	rs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rs), rs)
	}
	c := rs[0]
	if c.Name != "ShardedDAClassic" || c.NsPerOp != 850118736 ||
		c.BytesPerOp != 239101128 || c.AllocsPerOp != 2471766 {
		t.Fatalf("classic parsed wrong: %+v", c)
	}
	// The -8 GOMAXPROCS suffix is stripped; custom metrics are ignored.
	if rs[1].Name != "ShardedDASequential" || rs[1].AllocsPerOp != 673436 {
		t.Fatalf("sequential parsed wrong: %+v", rs[1])
	}
}

func TestCompare(t *testing.T) {
	floor := Trend{Benchmarks: []Result{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "B", NsPerOp: 100},
	}}
	ok := []Result{
		{Name: "A", NsPerOp: 100 * nsTolerance, AllocsPerOp: 1000 * allocsTolerance},
		{Name: "B", NsPerOp: 51},  // just above the improvement threshold
		{Name: "C", NsPerOp: 9e9}, // new benchmark: no floor yet, never a failure
	}
	if bad, improved := compare(floor, ok); len(bad) != 0 || len(improved) != 0 {
		t.Fatalf("at-tolerance run flagged: bad=%v improved=%v", bad, improved)
	}
	regressed := []Result{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 1000*allocsTolerance + 1},
		// B missing entirely.
	}
	bad, _ := compare(floor, regressed)
	if len(bad) != 2 {
		t.Fatalf("want 2 violations (allocs regression + missing B), got: %v", bad)
	}
	// Wall time never fails the gate: far over the floor is an info line.
	slow := []Result{{Name: "A", NsPerOp: 100*nsTolerance + 1, AllocsPerOp: 1000}, {Name: "B", NsPerOp: 100}}
	bad, notes := compare(floor, slow)
	if len(bad) != 0 || len(notes) != 1 || !strings.HasPrefix(notes[0], "info: A: ") || !strings.Contains(notes[0], "ns/op") {
		t.Fatalf("slow run: bad=%v notes=%v, want no violation and one info line", bad, notes)
	}
}

func TestCompareGatesBytes(t *testing.T) {
	floor := Trend{Benchmarks: []Result{
		{Name: "A", NsPerOp: 100, BytesPerOp: 1 << 20},
	}}
	ok := []Result{{Name: "A", NsPerOp: 100, BytesPerOp: (1 << 20) * bytesTolerance}}
	if bad, _ := compare(floor, ok); len(bad) != 0 {
		t.Fatalf("at-tolerance bytes flagged: %v", bad)
	}
	regressed := []Result{{Name: "A", NsPerOp: 100, BytesPerOp: (1<<20)*bytesTolerance + 1}}
	bad, _ := compare(floor, regressed)
	if len(bad) != 1 || !strings.Contains(bad[0], "B/op") {
		t.Fatalf("want 1 B/op violation, got: %v", bad)
	}
	// A floor without B/op never gates bytes.
	noBytes := Trend{Benchmarks: []Result{{Name: "A", NsPerOp: 100}}}
	if bad, _ := compare(noBytes, regressed); len(bad) != 0 {
		t.Fatalf("byteless floor flagged bytes: %v", bad)
	}
}

func TestCompareReportsImprovements(t *testing.T) {
	floor := Trend{Benchmarks: []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 1000, BytesPerOp: 1000},
	}}
	// Allocations collapsed 10x; ns and bytes hold steady.
	cur := []Result{{Name: "A", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1000}}
	bad, improved := compare(floor, cur)
	if len(bad) != 0 {
		t.Fatalf("improved run flagged as regression: %v", bad)
	}
	if len(improved) != 1 || !strings.Contains(improved[0], "allocs/op") {
		t.Fatalf("want 1 allocs/op improvement, got: %v", improved)
	}
	// Exactly at the threshold is not yet an improvement.
	at := []Result{{Name: "A", NsPerOp: 1000, AllocsPerOp: 1000 * improveAt, BytesPerOp: 1000}}
	if _, improved := compare(floor, at); len(improved) != 0 {
		t.Fatalf("at-threshold run reported improvement: %v", improved)
	}
}
