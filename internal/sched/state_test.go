package sched

import (
	"slices"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/policy"
)

// readsByPolicy is what each policy reads of ModuleState, written out from
// the policies' definitions: the estimator's IncludeQueue and Wait mode, the
// DAGOR admission control, and the WCL budget split.
var readsByPolicy = map[string]policy.Reads{
	"naive":         {},
	"clipper++":     {},
	"nexus":         {},
	"pard":          {QueueDelay: true, BatchWait: true},
	"pard-back":     {},
	"pard-sf":       {},
	"pard-oc":       {QueueDelay: true},
	"pard-split":    {},
	"pard-wcl":      {WCL: true},
	"pard-lower":    {QueueDelay: true},
	"pard-upper":    {QueueDelay: true},
	"pard-instant":  {QueueDelay: true, BatchWait: true},
	"pard-hbf":      {QueueDelay: true, BatchWait: true},
	"pard-lbf":      {QueueDelay: true, BatchWait: true},
	"pard-fcfs":     {QueueDelay: true, BatchWait: true},
	"pard-analytic": {QueueDelay: true},
}

// TestWindowsOnlyForReaders: a module keeps the window behind a ModuleState
// field only when its policy reads the field. Under every policy a module
// keeps exactly the queueing-delay window, batch-wait ring and WCL window
// (with its publish scratch) that policy.Reads names, and a loaded run
// publishes a positive value for each field read and only zeros for the
// others.
func TestWindowsOnlyForReaders(t *testing.T) {
	spec := pipeline.LV()
	if len(readsByPolicy) != len(policy.Names()) {
		t.Fatalf("readsByPolicy covers %d policies, policy.Names has %d", len(readsByPolicy), len(policy.Names()))
	}
	for _, name := range policy.Names() {
		want, ok := readsByPolicy[name]
		if !ok {
			t.Fatalf("%s: not in readsByPolicy", name)
		}
		man := NewManualExecutor()
		workers := make([]int, spec.N())
		for k := range workers {
			workers[k] = 2
		}
		cl, err := New(mustPlan(t, spec, workers), Config{PolicyName: name, Seed: 1, NetDelay: time.Millisecond}, man)
		if err != nil {
			t.Fatal(err)
		}
		if got := cl.Policy().Reads(); got != want {
			t.Fatalf("%s: Reads() = %+v, want %+v", name, got, want)
		}
		const rate, horizon = 300, 2 * time.Second
		arrivals := make([]time.Duration, 0, rate*2)
		for at := time.Duration(0); at < horizon; at += time.Second / rate {
			arrivals = append(arrivals, at)
			cl.Inject(&Request{ID: uint64(len(arrivals)), Send: at, Deadline: at + spec.SLO}, at)
		}
		cl.Reserve(arrivals, horizon, 100*time.Millisecond)
		var published policy.Reads
		for at := 100 * time.Millisecond; at <= horizon; at += 100 * time.Millisecond {
			man.Schedule(at, "sync", func(now time.Duration) {
				cl.SyncTick(now)
				for k := range cl.modules {
					s := cl.Board().Get(k)
					published.QueueDelay = published.QueueDelay || s.QueueDelay > 0
					published.BatchWait = published.BatchWait || len(s.BatchWait) > 0
					published.WCL = published.WCL || s.WCL > 0
				}
			})
		}
		man.Run()
		for _, m := range cl.modules {
			kept := policy.Reads{QueueDelay: m.qWin != nil, BatchWait: m.waitRes != nil, WCL: m.wclWin != nil}
			if kept != want {
				t.Fatalf("%s: module %d keeps windows %+v, want %+v", name, m.idx, kept, want)
			}
			if (cap(m.wclScratch) > 0) != want.WCL {
				t.Fatalf("%s: module %d keeps WCL scratch of %d, want it only beside a WCL window", name, m.idx, cap(m.wclScratch))
			}
		}
		if published != want {
			t.Fatalf("%s: published non-zero fields %+v, want %+v", name, published, want)
		}
	}
}

// TestQueueDelayProbeKeepsItsWindow: the queue-delay probe records the
// queueing-delay window's mean, so a module keeps that window for the probe
// even under a policy that does not read it, and the probe records it.
func TestQueueDelayProbeKeepsItsWindow(t *testing.T) {
	spec := pipeline.TM()
	man := NewManualExecutor()
	cl, err := New(mustPlan(t, spec, []int{1, 1, 1}), Config{PolicyName: "nexus", Seed: 1,
		NetDelay: time.Millisecond, Probes: ProbeConfig{QueueDelay: true, SampleEvery: 1}}, man)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at < time.Second; at += 5 * time.Millisecond {
		cl.Inject(&Request{ID: uint64(at), Send: at, Deadline: at + spec.SLO}, at)
	}
	man.Schedule(time.Second, "sync", cl.SyncTick)
	man.Run()
	for k, m := range cl.modules {
		if m.qWin == nil || m.waitRes != nil {
			t.Fatalf("module %d: queueing-delay window kept %t, batch-wait ring kept %t; want the window only", k, m.qWin != nil, m.waitRes != nil)
		}
		if s := cl.Probes(k).QueueDelay; s == nil || len(s.V) == 0 {
			t.Fatalf("module %d: the queue-delay probe recorded nothing", k)
		}
	}
}

// TestWaitRingsKeepTheLastWaits: every batch wait a module observes enters
// both its samples, and each keeps exactly the latest of them: the board's
// BatchWait the last waitRing, the decomposition probe's WaitSamples the last
// waitProbeRing. The waits are distinct, so a sample that skipped a wait or
// kept an older one shows as a different set.
func TestWaitRingsKeepTheLastWaits(t *testing.T) {
	spec := pipeline.TM()
	man := NewManualExecutor()
	cl, err := New(mustPlan(t, spec, []int{1, 1, 1}), Config{PolicyName: "pard", Seed: 1,
		Probes: ProbeConfig{Decomposition: true}}, man)
	if err != nil {
		t.Fatal(err)
	}
	const n = waitProbeRing + waitProbeRing/4 + 3
	waits := make([]float64, n)
	m := cl.modules[1]
	for i := range waits {
		waits[i] = float64(i) * 1e-4
		m.observe(time.Millisecond, time.Duration(waits[i]*float64(time.Second)), 10*time.Millisecond, time.Duration(i)*time.Millisecond)
	}
	last := func(k int) []float64 {
		var want []float64
		for _, w := range waits[n-k:] {
			want = append(want, time.Duration(w*float64(time.Second)).Seconds())
		}
		return want
	}
	if got := slices.Sorted(slices.Values(cl.Probes(1).WaitSamples)); !slices.Equal(got, last(waitProbeRing)) {
		t.Fatalf("WaitSamples holds %d waits from %v to %v, want the last %d of %d", len(got), got[0], got[len(got)-1], waitProbeRing, n)
	}
	cl.SyncTick(time.Duration(n) * time.Millisecond)
	if got := slices.Sorted(slices.Values(cl.Board().Get(1).BatchWait)); !slices.Equal(got, last(waitRing)) {
		t.Fatalf("the board's BatchWait holds %d waits from %v to %v, want the last %d of %d", len(got), got[0], got[len(got)-1], waitRing, n)
	}
	if got := cl.Probes(0).WaitSamples; len(got) != 0 {
		t.Fatalf("module 0 observed nothing, yet its probe holds %d waits", len(got))
	}
}
