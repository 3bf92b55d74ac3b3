package sched_test

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// The differential harness is the third determinism invariant of this repo
// (after parallel≡sequential sweeps and virtual≡wall clock parity): a
// simulation on the sharded per-module lane engine must be BIT-IDENTICAL for
// every shard count. The corpus below replays every pipeline shape (chains
// tm/lv/gm, the da DAG, the exclusive-branch da-dyn, a wide synthetic
// fan-out) under drop and priority pressure — bursty/spiky/overload traces,
// every policy family (estimator DEPQ, reactive FIFO, admission-control RNG,
// dynamic budget realloc), scaling with cold starts, and injected machine
// failures — and asserts that shard counts 1, 2 and 8 agree on every
// per-request drop decision, every per-sync priority decision, and the final
// metrics, byte for byte.

// diffCase is one corpus workload.
type diffCase struct {
	name   string
	spec   *pipeline.Spec
	kind   trace.Kind
	rate   float64 // peak req/s (0 = trace nominal)
	policy string
	seed   int64
	probes simgpu.ProbeConfig
	fixed  []int            // pinned workers (nil = provision + scaling)
	fails  []simgpu.Failure // injected crashes
	short  bool             // include in -short runs
}

// wideDAG is a 5-module DAG with a 3-way parallel fan-out: the widest lane
// concurrency the default model library supports.
func wideDAG() *pipeline.Spec {
	s := &pipeline.Spec{
		App: "wide",
		SLO: 450 * time.Millisecond,
		Modules: []pipeline.Module{
			{ID: 0, Name: "persondet", Subs: []int{1, 2, 3}},
			{ID: 1, Name: "poserec", Pres: []int{0}, Subs: []int{4}},
			{ID: 2, Name: "facerec", Pres: []int{0}, Subs: []int{4}},
			{ID: 3, Name: "eyetrack", Pres: []int{0}, Subs: []int{4}},
			{ID: 4, Name: "exprrec", Pres: []int{1, 2, 3}},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func diffCorpus() []diffCase {
	allProbes := simgpu.ProbeConfig{
		QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 2,
	}
	return []diffCase{
		{name: "tm-tweet-pard", spec: pipeline.TM(), kind: trace.Tweet, rate: 700, policy: "pard", seed: 1, short: true},
		{name: "tm-steady-nexus-overload", spec: pipeline.TM(), kind: trace.Steady, rate: 1200, policy: "nexus", seed: 2},
		{name: "lv-tweet-pard-probes", spec: pipeline.LV(), kind: trace.Tweet, rate: 650, policy: "pard", seed: 1, probes: allProbes},
		{name: "lv-azure-wcl", spec: pipeline.LV(), kind: trace.Azure, rate: 700, policy: "pard-wcl", seed: 2},
		{name: "gm-azure-oc", spec: pipeline.GM(), kind: trace.Azure, rate: 700, policy: "pard-oc", seed: 1},
		{name: "gm-tweet-clipper", spec: pipeline.GM(), kind: trace.Tweet, rate: 650, policy: "clipper++", seed: 2},
		{name: "da-tweet-pard-probes", spec: pipeline.DA(), kind: trace.Tweet, rate: 700, policy: "pard", seed: 1, probes: allProbes, short: true},
		{name: "da-steady-pard-failures", spec: pipeline.DA(), kind: trace.Steady, rate: 900, policy: "pard", seed: 2,
			fails: []simgpu.Failure{{At: 2 * time.Second, Module: 1, Count: 1}, {At: 4 * time.Second, Module: 0, Count: 2}}},
		{name: "da-azure-nexus-fixed", spec: pipeline.DA(), kind: trace.Azure, rate: 800, policy: "nexus", seed: 1, fixed: []int{2, 2, 2, 2, 2}},
		{name: "dadyn-tweet-pard", spec: pipeline.DADynamic(0.5), kind: trace.Tweet, rate: 700, policy: "pard", seed: 1, short: true},
		{name: "dadyn-azure-lbf", spec: pipeline.DADynamic(0.3), kind: trace.Azure, rate: 700, policy: "pard-lbf", seed: 2},
		{name: "wide-tweet-pard", spec: wideDAG(), kind: trace.Tweet, rate: 700, policy: "pard", seed: 3, probes: allProbes},
	}
}

// config is the corpus case's simulation over tr, on the default topology.
func (c diffCase) config(tr *trace.Trace) simgpu.Config {
	return simgpu.Config{
		Spec:         c.spec,
		PolicyName:   c.policy,
		Trace:        tr,
		Seed:         c.seed,
		SyncPeriod:   200 * time.Millisecond,
		Probes:       c.probes,
		FixedWorkers: c.fixed,
		Failures:     c.fails,
	}
}

// simRun is a result with the per-request ledger its collector does not
// keep, taken from the runner's requests.
type simRun struct {
	*simgpu.Result
	fates []fate
}

// fate is how one request ended.
type fate struct {
	Finished, Dropped   bool
	DoneAt, DropAt, GPU time.Duration
	DropModule          int
}

func runRecorded(cfg simgpu.Config) (*simRun, error) {
	r, err := simgpu.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	run := &simRun{Result: res}
	for _, req := range r.Requests() {
		run.fates = append(run.fates, fate{req.Finished, req.Dropped, req.DoneAt, req.DropAt, req.GPU, req.DropModule})
	}
	return run, nil
}

// runShards executes one corpus case at the given shard count and returns
// the result plus its gob serialization (the byte-identity witness — the
// same encoding the sweep disk cache persists).
func runShards(t *testing.T, c diffCase, tr *trace.Trace, shards int) (*simRun, []byte) {
	t.Helper()
	cfg := c.config(tr)
	cfg.Shards = shards
	res, err := runRecorded(cfg)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", c.name, shards, err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res.Result); err != nil {
		t.Fatalf("%s shards=%d: encode: %v", c.name, shards, err)
	}
	return res, buf.Bytes()
}

// explainDivergence pinpoints the first differing per-request decision for a
// readable failure message.
func explainDivergence(t *testing.T, name string, shards int, base, got *simRun) {
	t.Helper()
	a, b := base.fates, got.fates
	if len(a) != len(b) {
		t.Errorf("%s: shards=1 has %d requests, shards=%d has %d", name, len(a), shards, len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: request %d diverged: shards=1 %+v, shards=%d %+v", name, i, a[i], shards, b[i])
			return
		}
	}
	t.Errorf("%s: shards=%d output differs beyond per-request fates (probes/metrics)", name, shards)
}

// TestShardedDifferential replays the corpus through the sequential executor
// (sharded engine, one worker) and the sharded executor at 2 and 8 shards,
// asserting byte-identical results. -short replays a representative subset.
func TestShardedDifferential(t *testing.T) {
	totalDrops, modeSamples := 0, 0
	for _, c := range diffCorpus() {
		if testing.Short() && !c.short {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr := trace.MustGenerate(trace.Config{
				Kind: c.kind, Duration: 8 * time.Second, PeakRate: c.rate, Seed: c.seed + 100,
			})
			seqRes, seqBytes := runShards(t, c, tr, 1)
			for _, shards := range []int{2, 8} {
				res, b := runShards(t, c, tr, shards)
				if !bytes.Equal(seqBytes, b) {
					explainDivergence(t, c.name, shards, seqRes, res)
				}
				if res.SimEvents != seqRes.SimEvents {
					t.Errorf("%s: event counts diverged: shards=1 fired %d, shards=%d fired %d",
						c.name, seqRes.SimEvents, shards, res.SimEvents)
				}
			}
			totalDrops += seqRes.Summary.Dropped
			if seqRes.ModeSeries != nil {
				modeSamples += seqRes.ModeSeries.Len()
			}
		})
	}
	// Pressure guards: a corpus without drops or priority decisions would
	// make the equivalence vacuous.
	if totalDrops == 0 {
		t.Error("corpus produced no drops; differential harness is vacuous")
	}
	if modeSamples == 0 {
		t.Error("corpus recorded no priority-mode decisions; enable LoadFactor probes on at least one case")
	}
}

// TestLaneGroupDifferential replays the corpus split into 2 and 3 lockstep
// lane-group replicas over the in-process transport and asserts byte
// identity with the ungrouped run — the in-process half of determinism
// invariant #5 on the same adversarial corpus the shard invariant uses
// (DAG fan-out/merge across group boundaries, failures, scaling, every
// policy family). The cross-host half — the binary codec over loopback
// TCP — lives in internal/dist's TestSimDistributedDifferential.
func TestLaneGroupDifferential(t *testing.T) {
	for _, c := range diffCorpus() {
		if testing.Short() && !c.short {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr := trace.MustGenerate(trace.Config{
				Kind: c.kind, Duration: 8 * time.Second, PeakRate: c.rate, Seed: c.seed + 100,
			})
			flatRes, flatBytes := runShards(t, c, tr, 1)
			for _, groups := range []int{2, 3} {
				res, b, _ := runCountedGroups(t, c, tr, groups)
				if !bytes.Equal(flatBytes, b) {
					explainDivergence(t, c.name, groups, flatRes, res)
				}
			}
		})
	}
}

// TestShardedOversharded pins the edge where the shard count exceeds both
// module count and any sane worker count: results must still match the
// sequential baseline exactly.
func TestShardedOversharded(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 5 * time.Second, PeakRate: 600, Seed: 11})
	c := diffCase{name: "tm-oversharded", spec: pipeline.TM(), policy: "pard", seed: 4}
	_, seq := runShards(t, c, tr, 1)
	_, over := runShards(t, c, tr, 64)
	if !bytes.Equal(seq, over) {
		t.Fatal("shards=64 (more shards than modules) diverged from sequential")
	}
}

// stepCountingTransport counts one lane group's Step and Barrier exchanges.
type stepCountingTransport struct {
	sched.Transport
	steps, barriers int
}

func (t *stepCountingTransport) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	t.steps++
	return t.Transport.Step(m)
}

func (t *stepCountingTransport) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	t.barriers++
	return t.Transport.Barrier(m)
}

// runCountedGroups runs one corpus case as in-process lane-group replicas,
// each behind a counting transport, requires every replica to assemble the
// same bytes, and returns group 0's result and witness bytes and every
// group's counters.
func runCountedGroups(t *testing.T, c diffCase, tr *trace.Trace, groups int) (*simRun, []byte, []*stepCountingTransport) {
	t.Helper()
	trs := sched.NewMemTransports(groups)
	cts := make([]*stepCountingTransport, groups)
	results := make([]*simRun, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range trs {
		cts[g] = &stepCountingTransport{Transport: trs[g]}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := c.config(tr)
			cfg.Remote = &simgpu.RemoteTopology{Groups: groups, Group: g, Transport: cts[g]}
			results[g], errs[g] = runRecorded(cfg)
			if errs[g] != nil {
				cts[g].Abort(errs[g]) // release the peers from their rendezvous
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("%s groups=%d: group %d: %v", c.name, groups, g, err)
		}
	}
	var ref []byte
	for g, res := range results {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res.Result); err != nil {
			t.Fatalf("%s groups=%d: encode: %v", c.name, groups, err)
		}
		if g == 0 {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("%s groups=%d: group %d assembled a different result than group 0", c.name, groups, g)
		}
	}
	return results[0], ref, cts
}

// TestLaneGroupWatermark pins the soundness of carrying the low watermark on
// the barrier: with the cross-check on, every loop head of every replica also
// runs the Step exchange the piggyback replaced and aborts the run unless the
// two watermarks are equal — over the whole differential corpus (DAG traffic,
// failures, scaling, host callbacks). With it off, a run makes exactly one
// Step exchange, the opening rendezvous. Both must reproduce the ungrouped
// bytes.
func TestLaneGroupWatermark(t *testing.T) {
	for _, c := range diffCorpus() {
		if testing.Short() && !c.short {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr := trace.MustGenerate(trace.Config{
				Kind: c.kind, Duration: 8 * time.Second, PeakRate: c.rate, Seed: c.seed + 100,
			})
			_, flatBytes := runShards(t, c, tr, 1)
			for _, groups := range []int{2, 3} {
				sched.SetVerifyWatermark(true)
				_, checked, cts := runCountedGroups(t, c, tr, groups)
				sched.SetVerifyWatermark(false)
				if !bytes.Equal(flatBytes, checked) {
					t.Errorf("groups=%d: cross-checked run differs from the ungrouped run", groups)
				}
				for g, ct := range cts {
					// Every iteration ends in at least one barrier, so the
					// cross-check ran about once per barrier or more often.
					if ct.steps < 2 || ct.steps > ct.barriers+1 {
						t.Errorf("groups=%d group %d: %d step exchanges beside %d barriers: the cross-check did not run at every loop head",
							groups, g, ct.steps, ct.barriers)
					}
				}
				_, plain, cts := runCountedGroups(t, c, tr, groups)
				if !bytes.Equal(flatBytes, plain) {
					t.Errorf("groups=%d: run differs from the ungrouped run", groups)
				}
				for g, ct := range cts {
					if ct.steps != 1 {
						t.Errorf("groups=%d group %d: %d step exchanges, want only the opening rendezvous", groups, g, ct.steps)
					}
				}
			}
		})
	}
}
