package pard_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pard"
	"pard/internal/profile"
	"pard/internal/simgpu"
)

func TestQuickstartFlow(t *testing.T) {
	tr := pard.GenerateTrace(pard.TraceConfig{
		Kind:     pard.Tweet,
		Duration: 60 * time.Second,
		Seed:     1,
	})
	res, err := pard.Simulate(pard.SimConfig{
		Spec:       pard.LV(),
		PolicyName: "pard",
		Trace:      tr,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != tr.Len() {
		t.Fatalf("total %d != arrivals %d", res.Summary.Total, tr.Len())
	}
	if res.Summary.Good == 0 {
		t.Fatal("no requests met the SLO")
	}
}

func TestPipelineBuilders(t *testing.T) {
	for name, p := range map[string]*pard.Pipeline{
		"tm": pard.TM(), "lv": pard.LV(), "gm": pard.GM(), "da": pard.DA(),
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if pard.DADynamic(0.3).Validate() != nil {
		t.Fatal("dynamic DA invalid")
	}
	c := pard.Chain("demo", 300*time.Millisecond, 3, "facerec")
	if c.N() != 3 {
		t.Fatal("chain builder broken")
	}
}

func TestParsePipelineRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := pard.LV().Write(&b); err != nil {
		t.Fatal(err)
	}
	p, err := pard.ParsePipeline(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.App != "lv" {
		t.Fatalf("app = %s", p.App)
	}
}

func TestPolicyLists(t *testing.T) {
	all := pard.Policies()
	if len(all) != 16 {
		t.Fatalf("policies = %d, want 16", len(all))
	}
	if len(pard.ComparisonPolicies()) != 4 {
		t.Fatal("comparison should list 4 systems")
	}
	if len(pard.AblationPolicies()) != 12 {
		t.Fatal("ablations should list 12 variants")
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(pard.Experiments()) < 20 {
		t.Fatalf("only %d experiments registered", len(pard.Experiments()))
	}
	if _, err := pard.RunExperiment("bogus", pard.SweepConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	out, err := pard.RunExperiment("fig2a", pard.SweepConfig{BaseSeed: 1, TraceDuration: pard.ScaleSmoke})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 || len(out.Tables[0].Rows) == 0 {
		t.Fatal("empty experiment output")
	}
	// The facade's run renders every table as the experiments package pins
	// it for its seed-1 smoke run.
	raw, err := os.ReadFile("internal/experiments/testdata/smoke-seed1.digests")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, digests, ok := strings.Cut(line, " "); ok {
			pinned[key] = digests
		}
	}
	for _, tab := range out.Tables {
		key := "fig2a/" + tab.ID
		got := fmt.Sprintf("%x %x", sha256.Sum256([]byte(tab.Render())), sha256.Sum256([]byte(tab.CSV())))
		if want, ok := pinned[key]; !ok || got != want {
			t.Errorf("table %s: render and CSV digests %s, pinned %q (ok=%v)", key, got, want, ok)
		}
	}
}

func TestSweepEngineFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	eng := pard.NewSweepEngine(pard.SweepConfig{Workers: 4, BaseSeed: 2, TraceDuration: 30 * time.Second})
	specs := []pard.SweepSpec{
		{App: "tm", Kind: pard.Wiki, Policy: "pard"},
		{App: "tm", Kind: pard.Wiki, Policy: "nexus"},
		{App: "lv", Kind: pard.Tweet, Policy: "pard"},
	}
	results, err := eng.Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Summary.Total == 0 {
			t.Fatalf("spec %d: no requests simulated", i)
		}
	}
	if pard.DeriveSeed(1, "a") == pard.DeriveSeed(1, "b") {
		t.Fatal("derived seeds collide")
	}
}

func TestRunRAG(t *testing.T) {
	cfg := pard.DefaultRAGConfig(pard.RAGProactive)
	cfg.Queries = 1000
	res, err := pard.RunRAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1000 {
		t.Fatalf("total = %d", res.Total)
	}
}

// TestDefaultLibraryShared: a caller that adds a model to the library
// DefaultLibrary hands out, as the custompipeline example does, changes
// nothing for a simulation that names no library: it runs on the process's
// shared default, whose fingerprint and result bytes stay what they were.
func TestDefaultLibraryShared(t *testing.T) {
	cfg := pard.SimConfig{
		Spec:  pard.TM(),
		Trace: pard.GenerateTrace(pard.TraceConfig{Kind: pard.Steady, Duration: 10 * time.Second, PeakRate: 100, Seed: 1}),
		Seed:  1,
	}
	run := func() []byte {
		res, err := pard.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return simgpu.AppendResult(nil, res)
	}
	before, fp := run(), profile.Default().Fingerprint()
	lib := pard.DefaultLibrary()
	if lib.Fingerprint() != fp {
		t.Fatal("DefaultLibrary's profiles differ from the shared default's")
	}
	if err := lib.Add(pard.ModelProfile{Name: "custom", Alpha: time.Millisecond, Beta: time.Millisecond, MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	if lib.Fingerprint() == fp {
		t.Fatal("adding a model left the caller's library's fingerprint as it was")
	}
	if got := profile.Default().Fingerprint(); got != fp {
		t.Fatalf("the shared default's fingerprint moved from %016x to %016x after a caller's add", fp, got)
	}
	if !bytes.Equal(run(), before) {
		t.Fatal("a simulation with no library gave other result bytes after a caller's add")
	}
}

func TestDefaultLibraryAccessible(t *testing.T) {
	lib := pard.DefaultLibrary()
	m, err := lib.Get("persondet")
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration(1) <= 0 {
		t.Fatal("bad profile")
	}
}
