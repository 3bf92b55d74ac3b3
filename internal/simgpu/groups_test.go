package simgpu

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/trace"
)

// encodeResult produces the byte-identity witness the lane-group harness
// compares: the full Result, gob-encoded (the same witness the sharded
// differential harness uses).
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return buf.Bytes()
}

// TestLaneGroupsBitIdentical is the in-process half of determinism invariant
// #5: splitting the lane engine into N lockstep lane-group replicas changes
// nothing about the result — not one byte.
func TestLaneGroupsBitIdentical(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 6 * time.Second, PeakRate: 120, Seed: 7})
	base := Config{
		Spec:       pipeline.LV(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       42,
		SyncPeriod: 200 * time.Millisecond,
		Probes:     ProbeConfig{QueueDelay: true, LoadFactor: true, Decomposition: true},
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(t, ref)
	for _, groups := range []int{2, 3, 4} {
		cfg := base
		cfg.Groups = groups
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if got := encodeResult(t, res); !bytes.Equal(want, got) {
			t.Fatalf("groups=%d: result diverged from single-group run (%d vs %d encoded bytes)", groups, len(got), len(want))
		}
	}
}

// TestLaneGroupsFailuresAndScaling covers the control-lane exchanges: an
// injected failure (owner-only crash, drops learned via control flush) and
// the scaling engine (demand all-gather) under a 2-group split.
func TestLaneGroupsFailuresAndScaling(t *testing.T) {
	tr := steadyTrace(150, 6*time.Second, 3)
	base := Config{
		Spec:       pipeline.LV(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       11,
		SyncPeriod: 200 * time.Millisecond,
		Failures: []Failure{
			{At: 2 * time.Second, Module: 1, Count: 1},
			{At: 4 * time.Second, Module: 0, Count: 2},
		},
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(t, ref)
	for _, groups := range []int{2, 3} {
		cfg := base
		cfg.Groups = groups
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if got := encodeResult(t, res); !bytes.Equal(want, got) {
			t.Fatalf("groups=%d: result diverged from single-group run", groups)
		}
	}
}

// TestLaneGroupsDAG exercises cross-group mailbox traffic on a DAG app:
// fan-out and merge hops land on lanes owned by different groups under the
// round-robin placement.
func TestLaneGroupsDAG(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 6 * time.Second, PeakRate: 100, Seed: 9})
	base := Config{
		Spec:       pipeline.DA(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       5,
		SyncPeriod: 200 * time.Millisecond,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(t, ref)
	cfg := base
	cfg.Groups = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResult(t, res); !bytes.Equal(want, got) {
		t.Fatal("groups=2: DAG result diverged from single-group run")
	}
}

// TestLaneGroupsClampAndValidation pins the config surface: Groups beyond
// the module count clamps (a group per module is the finest split), negative
// counts and malformed remote topologies are rejected.
func TestLaneGroupsClampAndValidation(t *testing.T) {
	tr := steadyTrace(50, 2*time.Second, 1)
	cfg := Config{Spec: pipeline.LV(), Trace: tr, Groups: 99}
	out, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != pipeline.LV().N() {
		t.Fatalf("Groups=99 clamped to %d, want module count %d", out.Groups, pipeline.LV().N())
	}

	bad := []Config{
		{Spec: pipeline.LV(), Trace: tr, Groups: -1},
		{Spec: pipeline.LV(), Trace: tr, Remote: &RemoteTopology{Groups: 2, Group: 0}}, // nil transport
		{Spec: pipeline.LV(), Trace: tr, Groups: 2, Remote: &RemoteTopology{Groups: 2, Group: 0, Transport: sched.NewMemTransports(2)[0]}},
	}
	for i, c := range bad {
		if _, err := c.withDefaults(); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// TestLaneGroupAbortPropagates proves a failing group poisons the fabric:
// peers abort with the originating error instead of hanging at the next
// rendezvous.
func TestLaneGroupAbortPropagates(t *testing.T) {
	trs := sched.NewMemTransports(2)
	tr := steadyTrace(100, 4*time.Second, 2)
	cfg := Config{
		Spec:       pipeline.LV(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       1,
		SyncPeriod: 200 * time.Millisecond,
		Remote:     &RemoteTopology{Groups: 2, Group: 0, Transport: trs[0]},
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		errCh <- err
	}()
	// The peer never joins; poison the fabric as a disconnect would.
	trs[1].Abort(errTestDisconnect)

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("group 0 returned a result despite the aborted fabric")
		}
		if !strings.Contains(err.Error(), "injected disconnect") {
			t.Fatalf("abort reason lost: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("group 0 hung instead of aborting")
	}
}

var errTestDisconnect = errTest("injected disconnect")

type errTest string

func (e errTest) Error() string { return string(e) }
