package pipeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"pard/internal/profile"
)

func TestBuildersValid(t *testing.T) {
	for name, s := range Apps() {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.App != name {
			t.Fatalf("app name mismatch: %s vs %s", s.App, name)
		}
	}
	if err := DADynamic(0.5).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Uniform("u4", 4, "facerec", 300*time.Millisecond).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAppBuildsOne: App builds the application Apps keys by that name, and
// knows no other.
func TestAppBuildsOne(t *testing.T) {
	for name, want := range Apps() {
		got, ok := App(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("App(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	if s, ok := App("da-dyn"); ok || s != nil {
		t.Fatalf("App(\"da-dyn\") = %v, %v; want nothing", s, ok)
	}
}

func TestPaperSLOs(t *testing.T) {
	want := map[string]time.Duration{
		"tm": 400 * time.Millisecond,
		"lv": 500 * time.Millisecond,
		"gm": 600 * time.Millisecond,
		"da": 420 * time.Millisecond,
	}
	for name, slo := range want {
		if got := Apps()[name].SLO; got != slo {
			t.Fatalf("%s SLO = %v, want %v", name, got, slo)
		}
	}
}

func TestModuleCounts(t *testing.T) {
	counts := map[string]int{"tm": 3, "lv": 5, "gm": 5, "da": 5}
	for name, n := range counts {
		if got := Apps()[name].N(); got != n {
			t.Fatalf("%s has %d modules, want %d", name, got, n)
		}
	}
}

func TestAllModelsInDefaultLibrary(t *testing.T) {
	lib := profile.DefaultLibrary()
	for name, s := range Apps() {
		for _, m := range s.Modules {
			if _, err := lib.Get(m.Name); err != nil {
				t.Fatalf("%s module %s not profiled: %v", name, m.Name, err)
			}
		}
	}
}

func TestChainProperties(t *testing.T) {
	lv := LV()
	if !lv.IsChain() {
		t.Fatal("lv should be a chain")
	}
	if lv.Source() != 0 {
		t.Fatalf("source = %d", lv.Source())
	}
}

func TestDAStructure(t *testing.T) {
	da := DA()
	if da.IsChain() {
		t.Fatal("da should not be a chain")
	}
	paths := da.AllPaths()
	if len(paths) != 2 {
		t.Fatalf("da has %d source-sink paths, want 2", len(paths))
	}
	// Both paths: 0 → {1|2} → 3 → 4.
	for _, p := range paths {
		if len(p) != 4 || p[0] != 0 || p[2] != 3 || p[3] != 4 {
			t.Fatalf("unexpected path %v", p)
		}
	}
}

func TestDownstreamPaths(t *testing.T) {
	da := DA()
	// From the source both branches appear.
	ps := da.DownstreamPaths(0)
	if len(ps) != 2 {
		t.Fatalf("downstream of 0: %v", ps)
	}
	// From a branch module there is a single path to the sink.
	ps = da.DownstreamPaths(1)
	if len(ps) != 1 || len(ps[0]) != 2 || ps[0][0] != 3 || ps[0][1] != 4 {
		t.Fatalf("downstream of 1: %v", ps)
	}
	// Sink has no downstream paths.
	if ps := da.DownstreamPaths(4); ps != nil {
		t.Fatalf("downstream of sink: %v", ps)
	}
	// Chain: single path per module.
	lv := LV()
	ps = lv.DownstreamPaths(2)
	if len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("lv downstream of 2: %v", ps)
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mutate func(*Spec)) *Spec {
		s := &Spec{
			App: "x",
			SLO: time.Second,
			Modules: []Module{
				{ID: 0, Name: "a", Subs: []int{1}},
				{ID: 1, Name: "b", Pres: []int{0}},
			},
		}
		mutate(s)
		return s
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty", func(s *Spec) { s.Modules = nil }},
		{"zero slo", func(s *Spec) { s.SLO = 0 }},
		{"sparse ids", func(s *Spec) { s.Modules[1].ID = 5 }},
		{"empty name", func(s *Spec) { s.Modules[0].Name = "" }},
		{"pre out of range", func(s *Spec) { s.Modules[1].Pres = []int{9} }},
		{"sub out of range", func(s *Spec) { s.Modules[0].Subs = []int{9} }},
		{"asymmetric edge", func(s *Spec) { s.Modules[1].Pres = nil }},
		{"two sources", func(s *Spec) {
			s.Modules = append(s.Modules, Module{ID: 2, Name: "c", Subs: []int{1}})
			s.Modules[1].Pres = []int{0, 2}
		}},
		{"exclusive single sub", func(s *Spec) { s.Modules[0].Exclusive = true }},
		{"branch probs non-exclusive", func(s *Spec) { s.Modules[0].BranchProb = []float64{1} }},
	}
	for _, c := range cases {
		if err := mk(c.mutate).Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	s := &Spec{
		App: "cyc",
		SLO: time.Second,
		Modules: []Module{
			{ID: 0, Name: "a", Subs: []int{1}},
			{ID: 1, Name: "b", Pres: []int{0, 2}, Subs: []int{2}},
			{ID: 2, Name: "c", Pres: []int{1}, Subs: []int{1}},
		},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("cyclic spec accepted")
	}
}

func TestValidateBranchProbs(t *testing.T) {
	if err := DADynamic(0.3).Validate(); err != nil {
		t.Fatal(err)
	}
	s := DADynamic(0.3)
	s.Modules[0].BranchProb = []float64{0.3, 0.3}
	if err := s.Validate(); err == nil {
		t.Fatal("probs not summing to 1 accepted")
	}
	s.Modules[0].BranchProb = []float64{1.3, -0.3}
	if err := s.Validate(); err == nil {
		t.Fatal("negative prob accepted")
	}
	s.Modules[0].BranchProb = []float64{1}
	if err := s.Validate(); err == nil {
		t.Fatal("wrong-length probs accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for name, s := range Apps() {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.App != s.App || back.SLO != s.SLO || back.N() != s.N() {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse(strings.NewReader("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := Parse(strings.NewReader(`{"app":"x","slo_ns":1000,"modules":[]}`)); err == nil {
		t.Fatal("empty module list accepted")
	}
}

func TestUniform(t *testing.T) {
	s := Uniform("u", 4, "facerec", 300*time.Millisecond)
	if s.N() != 4 || !s.IsChain() {
		t.Fatalf("uniform spec wrong: %+v", s)
	}
	for _, m := range s.Modules {
		if m.Name != "facerec" {
			t.Fatalf("module %d model %s", m.ID, m.Name)
		}
	}
}

// TestAllocsValidate: Validate makes one allocation, the array that holds
// the in-degrees and Kahn's order (its own queue), whose in-degree half
// then marks reachability — the checks cost the same on a 70-module chain
// as on DA.
func TestAllocsValidate(t *testing.T) {
	for _, s := range []*Spec{TM(), LV(), DA(), DADynamic(0.3), Uniform("c70", 70, "eyetrack", 3*time.Second)} {
		if a := testing.AllocsPerRun(20, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		}); a > 1 {
			t.Errorf("%s: Validate allocates %.0f times, want at most 1", s.App, a)
		}
	}
}
