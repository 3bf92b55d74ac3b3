// Package pipeline defines inference pipelines as DAGs of modules, mirroring
// PARD's JSON configuration (§5.1): each module carries (name, id, pres,
// subs) where pres/subs list preceding and subsequent module IDs. A chain is
// the special case where every module has at most one predecessor and
// successor. The package validates specs, computes topological order and the
// downstream path sets that the State Planner's per-path latency estimation
// (§4.2, DAG case) consumes, and provides builders for the paper's four
// applications.
package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Module is one stage of the pipeline, serving a single DNN model.
type Module struct {
	// ID is the module's index; IDs must be 0..len(modules)-1.
	ID int `json:"id"`
	// Name is the model registered in the application library.
	Name string `json:"name"`
	// Pres and Subs list preceding / subsequent module IDs.
	Pres []int `json:"pres"`
	Subs []int `json:"subs"`
	// Exclusive marks a fan-out where each request takes exactly one
	// successor branch (the §5.2 request-specific dynamic path variant)
	// instead of being split to all successors.
	Exclusive bool `json:"exclusive,omitempty"`
	// BranchProb gives the per-successor selection probability for an
	// Exclusive fan-out, aligned with Subs; empty means uniform.
	BranchProb []float64 `json:"branch_prob,omitempty"`
}

// Spec is a full pipeline definition.
type Spec struct {
	App     string        `json:"app"`
	SLO     time.Duration `json:"slo_ns"`
	Modules []Module      `json:"modules"`
}

// N returns the module count.
func (s *Spec) N() int { return len(s.Modules) }

// Validate checks structural integrity: dense IDs, consistent pres/subs
// edges, exactly one source and one sink, acyclicity, full reachability, and
// well-formed branch probabilities.
func (s *Spec) Validate() error {
	n := len(s.Modules)
	if n == 0 {
		return fmt.Errorf("pipeline %s: no modules", s.App)
	}
	if s.SLO <= 0 {
		return fmt.Errorf("pipeline %s: SLO must be positive, got %v", s.App, s.SLO)
	}
	for i, m := range s.Modules {
		if m.ID != i {
			return fmt.Errorf("pipeline %s: module at index %d has id %d (ids must be dense)", s.App, i, m.ID)
		}
		if m.Name == "" {
			return fmt.Errorf("pipeline %s: module %d has empty name", s.App, i)
		}
		for _, p := range m.Pres {
			if p < 0 || p >= n {
				return fmt.Errorf("pipeline %s: module %d pre %d out of range", s.App, i, p)
			}
			if !contains(s.Modules[p].Subs, i) {
				return fmt.Errorf("pipeline %s: edge %d→%d in pres but not subs", s.App, p, i)
			}
		}
		for _, sub := range m.Subs {
			if sub < 0 || sub >= n {
				return fmt.Errorf("pipeline %s: module %d sub %d out of range", s.App, i, sub)
			}
			if !contains(s.Modules[sub].Pres, i) {
				return fmt.Errorf("pipeline %s: edge %d→%d in subs but not pres", s.App, i, sub)
			}
		}
		if m.Exclusive && len(m.Subs) < 2 {
			return fmt.Errorf("pipeline %s: module %d exclusive with %d successors", s.App, i, len(m.Subs))
		}
		if len(m.BranchProb) > 0 {
			if !m.Exclusive {
				return fmt.Errorf("pipeline %s: module %d has branch probabilities but is not exclusive", s.App, i)
			}
			if len(m.BranchProb) != len(m.Subs) {
				return fmt.Errorf("pipeline %s: module %d has %d branch probs for %d subs", s.App, i, len(m.BranchProb), len(m.Subs))
			}
			var sum float64
			for _, p := range m.BranchProb {
				if p < 0 {
					return fmt.Errorf("pipeline %s: module %d negative branch prob", s.App, i)
				}
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				return fmt.Errorf("pipeline %s: module %d branch probs sum to %v", s.App, i, sum)
			}
		}
	}
	sources, sinks := 0, 0
	for _, m := range s.Modules {
		if len(m.Pres) == 0 {
			sources++
		}
		if len(m.Subs) == 0 {
			sinks++
		}
	}
	if sources != 1 {
		return fmt.Errorf("pipeline %s: %d sources, want exactly 1", s.App, sources)
	}
	if sinks != 1 {
		return fmt.Errorf("pipeline %s: %d sinks, want exactly 1", s.App, sinks)
	}
	order, err := s.topoOrder()
	if err != nil {
		return err
	}
	if len(order) != n {
		return fmt.Errorf("pipeline %s: cycle detected", s.App)
	}
	reach := make([]bool, n)
	var walk func(int)
	walk = func(i int) {
		if reach[i] {
			return
		}
		reach[i] = true
		for _, sub := range s.Modules[i].Subs {
			walk(sub)
		}
	}
	walk(s.Source())
	for i, r := range reach {
		if !r {
			return fmt.Errorf("pipeline %s: module %d unreachable from source", s.App, i)
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Source returns the ID of the entry module (no predecessors), or -1.
func (s *Spec) Source() int {
	for _, m := range s.Modules {
		if len(m.Pres) == 0 {
			return m.ID
		}
	}
	return -1
}

// Sink returns the ID of the exit module (no successors), or -1.
func (s *Spec) Sink() int {
	for _, m := range s.Modules {
		if len(m.Subs) == 0 {
			return m.ID
		}
	}
	return -1
}

// IsChain reports whether the pipeline is a simple linear chain.
func (s *Spec) IsChain() bool {
	for _, m := range s.Modules {
		if len(m.Pres) > 1 || len(m.Subs) > 1 {
			return false
		}
	}
	return true
}

func (s *Spec) topoOrder() ([]int, error) {
	n := len(s.Modules)
	indeg := make([]int, n)
	for _, m := range s.Modules {
		indeg[m.ID] = len(m.Pres)
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, sub := range s.Modules[i].Subs {
			indeg[sub]--
			if indeg[sub] == 0 {
				queue = append(queue, sub)
			}
		}
	}
	if len(order) != n {
		return order, fmt.Errorf("pipeline %s: cycle detected", s.App)
	}
	return order, nil
}

// TopoOrder returns module IDs in a topological order. The spec must be
// valid.
func (s *Spec) TopoOrder() []int {
	order, err := s.topoOrder()
	if err != nil {
		panic(err)
	}
	return order
}

// DownstreamPaths returns every path of module IDs from each successor of
// `from` to the sink. The current module is excluded: these are the paths
// whose queueing, execution and batch-wait the State Planner aggregates into
// Lsub. A sink module returns nil (no downstream latency).
func (s *Spec) DownstreamPaths(from int) [][]int {
	m := s.Modules[from]
	if len(m.Subs) == 0 {
		return nil
	}
	var out [][]int
	var walk func(path []int, at int)
	walk = func(path []int, at int) {
		path = append(path, at)
		if len(s.Modules[at].Subs) == 0 {
			out = append(out, append([]int(nil), path...))
			return
		}
		for _, sub := range s.Modules[at].Subs {
			walk(path, sub)
		}
	}
	for _, sub := range m.Subs {
		walk(nil, sub)
	}
	return out
}

// AllPaths returns every source-to-sink path.
func (s *Spec) AllPaths() [][]int {
	src := s.Source()
	paths := s.DownstreamPaths(src)
	if paths == nil {
		return [][]int{{src}}
	}
	out := make([][]int, len(paths))
	for i, p := range paths {
		out[i] = append([]int{src}, p...)
	}
	return out
}

// Write serializes the spec as JSON (the paper's configuration format plus
// the SLO).
func (s *Spec) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Parse reads and validates a JSON spec.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("pipeline: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// chain builds a linear pipeline over the given model names.
func chain(app string, slo time.Duration, names ...string) *Spec {
	s := &Spec{App: app, SLO: slo}
	for i, name := range names {
		m := Module{ID: i, Name: name}
		if i > 0 {
			m.Pres = []int{i - 1}
		}
		if i < len(names)-1 {
			m.Subs = []int{i + 1}
		}
		s.Modules = append(s.Modules, m)
	}
	if err := s.Validate(); err != nil {
		panic(err) // builders construct valid specs by construction
	}
	return s
}

// TM is the traffic-monitoring pipeline: 3 modules, 400 ms SLO (§5.1).
func TM() *Spec { return chain("tm", 400*time.Millisecond, "objdet", "facerec", "textrec") }

// LV is the live-video-analysis pipeline: 5 modules, 500 ms SLO (§5.1).
func LV() *Spec {
	return chain("lv", 500*time.Millisecond, "persondet", "facerec", "exprrec", "eyetrack", "poserec")
}

// GM is the game-analysis pipeline: 5 modules, 600 ms SLO (§5.1; the paper
// also calls it "ga").
func GM() *Spec {
	return chain("gm", 600*time.Millisecond, "gameobj", "killdet", "alivecount", "healthval", "iconrec")
}

// DA is the DAG-style live-video pipeline, 420 ms SLO: person detection fans
// out to pose and face recognition in parallel; their outputs merge at
// expression recognition, followed by eye tracking (§5.1).
func DA() *Spec {
	s := &Spec{
		App: "da",
		SLO: 420 * time.Millisecond,
		Modules: []Module{
			{ID: 0, Name: "persondet", Subs: []int{1, 2}},
			{ID: 1, Name: "poserec", Pres: []int{0}, Subs: []int{3}},
			{ID: 2, Name: "facerec", Pres: []int{0}, Subs: []int{3}},
			{ID: 3, Name: "exprrec", Pres: []int{1, 2}, Subs: []int{4}},
			{ID: 4, Name: "eyetrack", Pres: []int{3}},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// DADynamic is the §5.2 variant of DA where each request probabilistically
// takes either the pose or the face branch instead of both.
func DADynamic(poseProb float64) *Spec {
	s := DA()
	s.App = "da-dyn"
	s.Modules[0].Exclusive = true
	s.Modules[0].BranchProb = []float64{poseProb, 1 - poseProb}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Uniform builds an n-module chain where every module runs the same model;
// Fig. 6's four-module equal-duration pipeline uses it.
func Uniform(app string, n int, model string, slo time.Duration) *Spec {
	names := make([]string, n)
	for i := range names {
		names[i] = model
	}
	return chain(app, slo, names...)
}

// apps maps the paper's four applications to their constructors.
var apps = map[string]func() *Spec{"tm": TM, "lv": LV, "gm": GM, "da": DA}

// App builds the paper's application called name, and only that one.
func App(name string) (*Spec, bool) {
	build, ok := apps[name]
	if !ok {
		return nil, false
	}
	return build(), true
}

// Apps returns the paper's four applications keyed by name.
func Apps() map[string]*Spec {
	m := make(map[string]*Spec, len(apps))
	for name, build := range apps {
		m[name] = build()
	}
	return m
}
