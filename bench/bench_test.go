package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pard/internal/sched"
)

// benchmarkJSON mirrors the committed contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables: the contract file and the tables the
// program emits from must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
		seen[m.Name] = true
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if d.Moves == "" || d.Quiet == "" {
			t.Errorf("%s: no prediction of what it moves and where it is quiet", d.Name)
		}
	}
	for name := range seen {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
	}
}

// TestSmoke runs every workload at smoke size and checks that each pass emits
// every metric it owes exactly once, finite, with all checks passing. The
// traced passes triple the time, so -short leaves them out.
func TestSmoke(t *testing.T) {
	t.Cleanup(func() { os.RemoveAll(buildDir) })
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			res, tr, err := runWorkload(w, 1, 1, traced, smokeSizing)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s traced=%v: check failed: %s", w.Name, traced, v)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			line := res.contract()
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
			}
			if traced {
				path := buildDir + "/spans-test.json"
				if err := tr.writeFile(path, environment{}, res.Metrics); err != nil {
					t.Fatal(err)
				}
				var f spanFile
				data, err := os.ReadFile(path)
				if err == nil {
					err = json.Unmarshal(data, &f)
				}
				if err != nil || len(f.Spans) == 0 || f.Workload != w.Name {
					t.Errorf("%s: span file: %v, %d spans", w.Name, err, len(f.Spans))
				}
			}
		}
	}
}

// TestResultLine drives the command the way the driver does and checks the
// shape of the last line of standard output.
func TestResultLine(t *testing.T) {
	t.Cleanup(func() { os.RemoveAll(buildDir) })
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", wHTTP, "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(line))
	}
	if !strings.Contains(lines[0], "GOMAXPROCS 2") || !strings.Contains(lines[0], "seed 3") {
		t.Errorf("no environment header: %q", lines[0])
	}
	if code := realMain([]string{"--workload", "no-such"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestCountingConnTransparent: the wrapper delivers the same bytes in the
// same order in both directions and counts them.
func TestCountingConnTransparent(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tr := newTracer("test")
	cc := &countingConn{Conn: a, tr: tr, op: 1, parent: 0}
	rng := rand.New(rand.NewSource(1))
	sent := make([]byte, 64<<10)
	rng.Read(sent)

	go func() { // the peer writes in uneven chunks
		for off := 0; off < len(sent); {
			n := min(1+rng.Intn(5000), len(sent)-off)
			if _, err := b.Write(sent[off : off+n]); err != nil {
				return
			}
			off += n
		}
	}()
	got := make([]byte, len(sent))
	if _, err := io.ReadFull(cc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sent) {
		t.Fatal("bytes read through the wrapper differ from the bytes written")
	}
	if cc.rxBytes.Load() != int64(len(sent)) || cc.reads.Load() < 1 {
		t.Errorf("counted %d bytes in %d reads, want %d bytes", cc.rxBytes.Load(), cc.reads.Load(), len(sent))
	}

	echoed := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(sent))
		io.ReadFull(b, buf)
		echoed <- buf
	}()
	for off := 0; off < len(sent); off += 4096 {
		if _, err := cc.Write(sent[off : off+4096]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(<-echoed, sent) {
		t.Fatal("bytes written through the wrapper differ at the peer")
	}
	if cc.txBytes.Load() != int64(len(sent)) || cc.writes.Load() != int64(len(sent)/4096) {
		t.Errorf("counted %d bytes in %d writes", cc.txBytes.Load(), cc.writes.Load())
	}
	if n := len(tr.spans); int64(n) != cc.reads.Load()+cc.writes.Load() {
		t.Errorf("%d spans for %d reads and %d writes", n, cc.reads.Load(), cc.writes.Load())
	}
}

// TestCountingTransportTransparent: a wrapped group and its unwrapped peer
// receive the same merged messages, in group order, exchange after exchange.
func TestCountingTransportTransparent(t *testing.T) {
	const rounds = 50
	trs := sched.NewMemTransports(2)
	wrapped := &countingTransport{Transport: trs[0]}
	groups := [2]sched.Transport{wrapped, trs[1]}
	var seen [2][]any
	var wg sync.WaitGroup
	for g := range groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				steps, err := groups[g].Step(sched.StepMsg{Group: int32(g), LaneAt: time.Duration(i*10 + g), LaneOK: true})
				if err != nil {
					t.Error(err)
					return
				}
				msg := sched.BarrierMsg{Group: int32(g)}
				for p := 0; p < i%3; p++ { // every third barrier is empty on both sides
					msg.Posts = append(msg.Posts, sched.WirePost{At: time.Duration(i), Src: int32(g), Dst: int32(1 - g), Req: uint64(i*10 + p)})
				}
				barriers, err := groups[g].Barrier(msg)
				if err != nil {
					t.Error(err)
					return
				}
				seen[g] = append(seen[g], steps, barriers)
			}
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatal("the wrapped group saw different merged messages than its peer")
	}
	for i, m := range seen[0] {
		if steps, ok := m.([]sched.StepMsg); ok && (len(steps) != 2 || steps[0].Group != 0 || steps[1].Group != 1) {
			t.Fatalf("exchange %d: merged steps out of group order: %+v", i, steps)
		}
	}
	posts := 0
	for _, m := range seen[0] {
		if barriers, ok := m.([]sched.BarrierMsg); ok {
			for _, b := range barriers {
				posts += len(b.Posts)
			}
		}
	}
	if wrapped.steps != rounds || wrapped.barriers != rounds || wrapped.exchanges() != 2*rounds || wrapped.posts != posts {
		t.Errorf("counted %d steps, %d barriers, %d posts; want %d, %d, %d", wrapped.steps, wrapped.barriers, wrapped.posts, rounds, rounds, posts)
	}
	if wrapped.emptyBarriers == 0 || wrapped.emptyBarriers >= rounds {
		t.Errorf("counted %d empty barriers of %d", wrapped.emptyBarriers, rounds)
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer("test")
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(1, 0, "bench", "op", at(0), at(100))
	tr.add(1, root, "dist", "a", at(10), at(50))
	mid := tr.add(1, root, "dist", "b", at(30), at(70)) // overlaps a
	tr.add(1, mid, "net", "read", at(40), at(60))
	self := tr.selfTimes()[1]
	want := map[string]time.Duration{
		"bench": 40 * time.Millisecond, // 100 - union [10, 70]
		"dist":  60 * time.Millisecond, // a: 40, b: 40 - 20
		"net":   20 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestVerdict: the three outcomes of applying a bound.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "goodput_rps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, verdictOK},
		{lower, steady, []float64{115, 114, 116, 115, 115}, verdictRegressed},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK},
		{higher, steady, []float64{85, 84, 86, 85, 85}, verdictRegressed},
		{higher, steady, []float64{115, 114, 116, 115, 115}, verdictOK},
		{lower, steady, []float64{90, 130, 100, 140, 95}, verdictUnresolved},
	}
	for i, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
}

// TestSpreadMatchesDriver: the spread is computed the way the driver does,
// from Python's statistics.quantiles(xs, n=4).
func TestSpreadMatchesDriver(t *testing.T) {
	xs := []float64{2132, 2175, 2107, 1903, 2355, 2321, 2934, 3013, 3116, 2963}
	if got, want := spread(xs), 0.36345166809238666; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if got := spread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("spread of three values %v, want 0", got)
	}
}
