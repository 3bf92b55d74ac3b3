package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. All spans of one simulation or request share Op; Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without the cost.
type tracer struct {
	workload string
	t0       time.Time
	nextID   atomic.Int64
	nextOp   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// newOp allocates the identifier shared by every span of one operation.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	return int(t.nextOp.Add(1))
}

// newID reserves a span ID before the span ends, so children recorded
// meanwhile (in another goroutine, or across a socket) can name their parent.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	return int(t.nextID.Add(1))
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, op, parent int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		ID: id, Name: name, Layer: layer, Workload: t.workload, Op: op, Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add stores a finished span and returns its ID.
func (t *tracer) add(op, parent int, layer, name string, start, end time.Time) int {
	id := t.newID()
	t.record(id, op, parent, layer, name, start, end)
	return id
}

// timed runs fn inside a span and returns fn's duration.
func (t *tracer) timed(op, parent int, layer, name string, fn func()) time.Duration {
	id := t.newID()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(id, op, parent, layer, name, start, end)
	return end.Sub(start)
}

// selfTimes returns, per operation and layer, the time spans of that layer
// spent outside their children: a span's duration minus the part of its
// interval that its child spans cover (children may overlap each other when
// they ran concurrently, so the cover is a union, not a sum).
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		if out[s.Op] == nil {
			out[s.Op] = map[string]time.Duration{}
		}
		out[s.Op][s.Layer] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// layerSelfMedians reduces selfTimes to one figure per layer: the median
// over operations of that layer's self time within the operation, in ms.
func (t *tracer) layerSelfMedians() map[string]float64 {
	perLayer := map[string][]float64{}
	for _, layers := range t.selfTimes() {
		for layer, d := range layers {
			perLayer[layer] = append(perLayer[layer], ms(d))
		}
	}
	out := map[string]float64{}
	for layer, xs := range perLayer {
		out[layer] = median(xs)
	}
	return out
}

// spanFile is what the traced pass leaves on disk: the raw spans and the
// per-layer table derived from them.
type spanFile struct {
	Env      environment        `json:"env"`
	Workload string             `json:"workload"`
	Spans    []span             `json:"spans"`
	PerLayer map[string]float64 `json:"per_layer"`
}

func (t *tracer) writeFile(path string, env environment, perLayer map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(spanFile{Env: env, Workload: t.workload, Spans: spans, PerLayer: perLayer})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
