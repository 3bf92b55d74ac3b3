package simgpu

import (
	"bytes"
	"encoding/gob"
	"strings"
	"sync"
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

// runRemote runs cfg as `groups` lane groups on goroutines of this process,
// each with Remote set to its endpoint of an in-process fabric, requires
// every replica to assemble the same bytes, and returns them.
func runRemote(t *testing.T, cfg Config, groups int) []byte {
	t.Helper()
	trs := sched.NewMemTransports(groups)
	results := make([]*Result, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range trs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gcfg := cfg
			gcfg.Remote = &RemoteTopology{Groups: groups, Group: g, Transport: trs[g]}
			if results[g], errs[g] = Run(gcfg); errs[g] != nil {
				trs[g].Abort(errs[g]) // release the peers from their rendezvous
			}
		}(g)
	}
	wg.Wait()
	var ref []byte
	for g, err := range errs {
		if err != nil {
			t.Fatalf("groups=%d: group %d: %v", groups, g, err)
		}
		if got := encodeResult(t, results[g]); g == 0 {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("groups=%d: group %d assembled a different result than group 0", groups, g)
		}
	}
	return ref
}

// TestLaneGroupsBitIdentical splits a probed LV run into four lockstep lane
// groups — one more than internal/sched's TestLaneGroupDifferential covers —
// and requires the ungrouped result, byte for byte.
func TestLaneGroupsBitIdentical(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 6 * time.Second, PeakRate: 120, Seed: 7})
	cfg := Config{
		Spec:       pipeline.LV(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       42,
		SyncPeriod: 200 * time.Millisecond,
		Probes:     ProbeConfig{QueueDelay: true, LoadFactor: true, Decomposition: true},
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runRemote(t, cfg, 4), encodeResult(t, ref); !bytes.Equal(want, got) {
		t.Fatalf("groups=4: result diverged from single-group run (%d vs %d encoded bytes)", len(got), len(want))
	}
}

// TestLaneGroupsClampAndValidation pins the config surface: a remote
// topology needs at least two groups, an index in range and a transport.
func TestLaneGroupsClampAndValidation(t *testing.T) {
	tr := steadyTrace(50, 2*time.Second, 1)
	mem := sched.NewMemTransports(2)[0]
	bad := []*RemoteTopology{
		{Groups: 2, Group: 0}, // nil transport
		{Groups: 1, Group: 0, Transport: mem},
		{Groups: 2, Group: 2, Transport: mem},
		{Groups: 2, Group: -1, Transport: mem},
	}
	for i, rt := range bad {
		c := Config{Spec: pipeline.LV(), Trace: tr, Remote: rt}
		if _, err := c.withDefaults(); err == nil {
			t.Fatalf("remote topology %d (%+v) accepted", i, *rt)
		}
	}
	ok := Config{Spec: pipeline.LV(), Trace: tr, Remote: &RemoteTopology{Groups: 2, Group: 1, Transport: mem}}
	if _, err := ok.withDefaults(); err != nil {
		t.Fatalf("a valid remote topology was refused: %v", err)
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
