package sched_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// The differential corpus below replays every pipeline shape (chains
// tm/lv/gm, the da DAG, the exclusive-branch da-dyn, a wide synthetic
// fan-out) under drop and priority pressure — bursty/spiky/overload traces,
// every policy family (estimator DEPQ, reactive FIFO, admission-control RNG,
// dynamic budget realloc), scaling with cold starts, and injected machine
// failures. Each case's result is pinned by digest (diffDigests), and the
// lane-group replicas of determinism invariant #4 must reproduce it byte for
// byte: every per-request drop decision, every per-sync priority decision,
// and the final metrics.

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

// runFlat executes one corpus case on one lane group and returns the result
// plus its gob serialization (the byte-identity witness: gob walks every
// field, and carries the collector in its binary form).
func runFlat(t *testing.T, c diffCase, tr *trace.Trace) (*simRun, []byte) {
	t.Helper()
	res, err := runRecorded(c.config(tr))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res.Result); err != nil {
		t.Fatalf("%s: encode: %v", c.name, err)
	}
	return res, buf.Bytes()
}

// explainDivergence pinpoints the first differing per-request decision for a
// readable failure message.
func explainDivergence(t *testing.T, name string, groups int, base, got *simRun) {
	t.Helper()
	a, b := base.fates, got.fates
	if len(a) != len(b) {
		t.Errorf("%s: one group has %d requests, groups=%d has %d", name, len(a), groups, len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: request %d diverged: one group %+v, groups=%d %+v", name, i, a[i], groups, b[i])
			return
		}
	}
	t.Errorf("%s: groups=%d output differs beyond per-request fates (probes/metrics)", name, groups)
}

// diffDigests pins the SHA-256 of each corpus case's gob-encoded result.
// They were recorded before the shard pool was deleted, when 1, 2 and 8
// shards agreed on every case; a change that moves one says why. They were
// re-pinned once since, when the collector's encoding left gob: the tree
// before that change, with only the new collector encoder added, gives these
// same digests, so the results themselves did not move.
var diffDigests = map[string]string{
	"tm-tweet-pard":            "9bea7100e55ace61b33033f41e8f37fda7274fea24debb8463b47e708edddbc5",
	"tm-steady-nexus-overload": "688a415cc9094d2e6cde2de27423745a796514e71ddac533610af284ef225360",
	"lv-tweet-pard-probes":     "71064632ce5a4942fdada4cd5460d6bb336a78b46d5a1838f04f452872d7a264",
	"lv-azure-wcl":             "4adf6c60f8df393be21d509a5bc0807a4b9110fb8bc11f2ac9a622185c5a8eb1",
	"gm-azure-oc":              "76312db3158d50f761f2d2220acda73ebdb64015df01a29821715171c211b2b6",
	"gm-tweet-clipper":         "bbcf17184ca5d2ed351c9c1f622a84fbeae22dd46a3c48f57700e7d3bd19d6a5",
	"da-tweet-pard-probes":     "0f1d4cd72df2b47d1cce06ff962dcd1d42ea6ca8f0ff731d2abf9e1775c2edd4",
	"da-steady-pard-failures":  "260dcee3df2e341482bc8ad8a269e46d52963db106b80935db550d63f3c66d6b",
	"da-azure-nexus-fixed":     "5a6b651cdc630701e7042dbe9c9f51eaea5a4ceef93652b86b30fbfba6a7c7c7",
	"dadyn-tweet-pard":         "c7dcb0dc7345b2fed2dd735aca6b37b1cc74b6ee7d9372d5fdb443ad71b88a00",
	"dadyn-azure-lbf":          "4df3971a11f5a496cf775170e6b5b197d43f0ebeb42869c365204bdc650f6ef3",
	"wide-tweet-pard":          "5f49148dc231bc992d430a5d457ee8f9676a90ab253d26002d50566e8ee65d3c",
}

// TestShardedDifferential replays the corpus through the lane engine and
// requires every result to hash as pinned in diffDigests. -short replays a
// representative subset.
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
			seqRes, seqBytes := runFlat(t, c, tr)
			if got := fmt.Sprintf("%x", sha256.Sum256(seqBytes)); got != diffDigests[c.name] {
				t.Errorf("%s: result digest %s, pinned %q (%d events, %d drops)",
					c.name, got, diffDigests[c.name], seqRes.SimEvents, seqRes.Summary.Dropped)
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
// invariant #4 on the adversarial corpus (DAG fan-out/merge across group
// boundaries, failures, scaling, every policy family). The cross-host half — the binary codec over loopback
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
			flatRes, flatBytes := runFlat(t, c, tr)
			for _, groups := range []int{2, 3} {
				res, b, _ := runCountedGroups(t, c, tr, groups)
				if !bytes.Equal(flatBytes, b) {
					explainDivergence(t, c.name, groups, flatRes, res)
				}
			}
		})
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
			_, flatBytes := runFlat(t, c, tr)
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
