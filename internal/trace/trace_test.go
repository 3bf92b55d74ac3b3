package trace

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateAllKinds(t *testing.T) {
	for _, k := range kinds {
		tr, err := Generate(Config{Kind: k, Duration: 100 * time.Second, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if tr.Len() == 0 {
			t.Fatalf("%s: empty trace", k)
		}
		if !sort.SliceIsSorted(tr.Arrivals, func(i, j int) bool { return tr.Arrivals[i] < tr.Arrivals[j] }) {
			t.Fatalf("%s: arrivals not sorted", k)
		}
		for _, a := range tr.Arrivals {
			if a < 0 || a >= tr.Duration {
				t.Fatalf("%s: arrival %v outside [0, %v)", k, a, tr.Duration)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Kind: Wiki, Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Generate(Config{Kind: Kind("nope"), Duration: time.Second}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(Config{Kind: Tweet, Duration: 200 * time.Second, Seed: 7})
	b := MustGenerate(Config{Kind: Tweet, Duration: 200 * time.Second, Seed: 7})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	c := MustGenerate(Config{Kind: Tweet, Duration: 200 * time.Second, Seed: 8})
	if c.Len() == a.Len() {
		same := true
		for i := range a.Arrivals {
			if a.Arrivals[i] != c.Arrivals[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestSteadyRateMatchesTarget(t *testing.T) {
	tr := MustGenerate(Config{Kind: Steady, Duration: 200 * time.Second, PeakRate: 100, Seed: 3})
	got := tr.MeanRate()
	if math.Abs(got-100) > 5 {
		t.Fatalf("steady mean rate = %v, want ≈100", got)
	}
}

func TestStepDoubles(t *testing.T) {
	tr := MustGenerate(Config{Kind: Step, Duration: 400 * time.Second, PeakRate: 200, Seed: 3})
	first := tr.Slice(0, 200*time.Second)
	second := tr.Slice(200*time.Second, 400*time.Second)
	r1, r2 := first.MeanRate(), second.MeanRate()
	if r2 < 1.7*r1 || r2 > 2.3*r1 {
		t.Fatalf("step ratio = %v (r1=%v r2=%v), want ≈2", r2/r1, r1, r2)
	}
}

func TestTweetBurstDoublesRate(t *testing.T) {
	dur := 1400 * time.Second
	tr := MustGenerate(Config{Kind: Tweet, Duration: dur, Seed: 11})
	// Burst is centered at 0.6 × 1400 s = 840 s (paper: rate doubles around
	// t = 850 s, Fig. 2d / §3.2).
	pre := tr.Slice(700*time.Second, 800*time.Second).MeanRate()
	burst := tr.Slice(840*time.Second, 880*time.Second).MeanRate()
	if burst < 1.5*pre {
		t.Fatalf("burst rate %v not ≥1.5× pre-burst %v", burst, pre)
	}
}

func TestWikiSmootherThanAzure(t *testing.T) {
	wiki := MustGenerate(Config{Kind: Wiki, Duration: 1000 * time.Second, Seed: 5}).Analyze()
	azure := MustGenerate(Config{Kind: Azure, Duration: 1000 * time.Second, Seed: 5}).Analyze()
	tweet := MustGenerate(Config{Kind: Tweet, Duration: 1400 * time.Second, Seed: 5}).Analyze()
	// Relative burstiness ordering from §5.4: wiki < tweet < azure, measured
	// on the detrended burst CV so wiki's deliberate ramp doesn't count as
	// burstiness.
	if !(wiki.BurstCV < tweet.BurstCV) {
		t.Fatalf("BurstCV ordering violated: wiki %v !< tweet %v", wiki.BurstCV, tweet.BurstCV)
	}
	if !(tweet.BurstCV < azure.BurstCV) {
		t.Fatalf("BurstCV ordering violated: tweet %v !< azure %v", tweet.BurstCV, azure.BurstCV)
	}
}

func TestWikiRampsUp(t *testing.T) {
	tr := MustGenerate(Config{Kind: Wiki, Duration: 1000 * time.Second, Seed: 9})
	early := tr.Slice(0, 100*time.Second).MeanRate()
	late := tr.Slice(900*time.Second, 1000*time.Second).MeanRate()
	if late < 2*early {
		t.Fatalf("wiki should ramp: early %v, late %v", early, late)
	}
}

func TestThinningMatchesIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rate := func(t time.Duration) float64 { return 50 + 50*t.Seconds()/100 }
	arr := Thinning(rate, 100, 100*time.Second, rng)
	// Integral of rate over [0,100] = 50*100 + 50*100/2 = 7500.
	if n := float64(len(arr)); math.Abs(n-7500) > 300 {
		t.Fatalf("thinning count %v, want ≈7500", n)
	}
}

func TestThinningEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Thinning(func(time.Duration) float64 { return 1 }, 0, time.Second, rng); got != nil {
		t.Fatal("maxRate=0 should yield nil")
	}
	if got := Thinning(func(time.Duration) float64 { return 1 }, 1, 0, rng); got != nil {
		t.Fatal("duration=0 should yield nil")
	}
	got := Thinning(func(time.Duration) float64 { return 0 }, 10, 10*time.Second, rng)
	if len(got) != 0 {
		t.Fatalf("zero rate produced %d arrivals", len(got))
	}
}

func TestAnalyzeCounts(t *testing.T) {
	tr := &Trace{
		Name:     "x",
		Arrivals: []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond},
		Duration: 2 * time.Second,
	}
	st := tr.Analyze()
	if st.Seconds != 2 {
		t.Fatalf("seconds = %d", st.Seconds)
	}
	if st.PerSecond[0] != 2 || st.PerSecond[1] != 1 {
		t.Fatalf("per-second = %v", st.PerSecond)
	}
	if st.MeanRate != 1.5 || st.PeakRate != 2 {
		t.Fatalf("mean %v peak %v", st.MeanRate, st.PeakRate)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	tr := &Trace{Name: "e"}
	if st := tr.Analyze(); st.Seconds != 0 || st.CV != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestSliceReanchors(t *testing.T) {
	tr := &Trace{
		Arrivals: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second},
		Duration: 5 * time.Second,
	}
	s := tr.Slice(2*time.Second, 4*time.Second)
	if s.Len() != 2 {
		t.Fatalf("slice len = %d, want 2", s.Len())
	}
	if s.Arrivals[0] != 0 || s.Arrivals[1] != time.Second {
		t.Fatalf("slice not re-anchored: %v", s.Arrivals)
	}
	if s.Duration != 2*time.Second {
		t.Fatalf("slice duration = %v", s.Duration)
	}
}

// TestCSVRoundTrip: WriteCSV then ReadCSV gives back the same trace to the
// nanosecond — name, duration and every arrival — for the paper's shapes at
// full length, and for offsets drawn at random below 10⁶ s.
func TestCSVRoundTrip(t *testing.T) {
	for _, tr := range roundTripTraces() {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV("other", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tr) {
			changed := 0
			for i := range min(back.Len(), tr.Len()) {
				if back.Arrivals[i] != tr.Arrivals[i] {
					changed++
				}
			}
			t.Fatalf("%s: read back %q, %d arrivals over %v (%d changed); wrote %q, %d over %v",
				tr.Name, back.Name, back.Len(), back.Duration, changed, tr.Name, tr.Len(), tr.Duration)
		}
	}
}

// roundTripTraces are TestCSVRoundTrip's traces: two generated over 1400 s,
// a fixed-rate one and 10 000 random offsets up to 10⁶ s.
func roundTripTraces() []*Trace {
	rng := rand.New(rand.NewSource(3))
	random := &Trace{Name: "random name", Duration: time.Duration(1e15)}
	for range 10000 {
		random.Arrivals = append(random.Arrivals, time.Duration(rng.Int63n(1e15)))
	}
	slices.Sort(random.Arrivals)
	return []*Trace{
		MustGenerate(Config{Kind: Tweet, Duration: 1400 * time.Second, Seed: 1}),
		MustGenerate(Config{Kind: Azure, Duration: 1400 * time.Second, Seed: 1}),
		Fixed(3, 7*time.Second),
		random,
	}
}

// badCSVs are TestReadCSVErrors' inputs, each with the start of its error
// after "trace: ".
var badCSVs = []struct{ in, want string }{
	{"abc\n", "f.csv:1: "},
	{"1\n-1\n", "f.csv:2: "},
	{"1\n\n1e20\n", "f.csv:3: "},
	{"# c\nNaN\n", "f.csv:2: "},
	{"+Inf\n", "f.csv:1: "},
	{"-Inf\n", "f.csv:1: "},
	{"1e400\n", "f.csv:1: "},
	{"9223372037\n", "f.csv:1: "},
	{"-1e-10\n", "f.csv:1: "},
	{"# trace=x\n1\n", "f.csv:1: header has no duration_s"},
	{"# trace=x duration_s=NaN\n1\n", "f.csv:1: duration_s: "},
	{"# trace=x duration_s=-5\n1\n", "f.csv:1: duration_s: "},
	{"0.5\n" + strings.Repeat("1", 2<<20) + "\n", "f.csv:2: "},
	{"# trace=x duration_s=0.5\n1\n2\n30\n", "f.csv:1: duration_s 0.500000000 ends before the last arrival, at 30.000000000 s"},
	{"# c\n# trace=x duration_s=29.999999999\n30\n", "f.csv:2: duration_s "},
}

// TestReadCSVErrors: a value that is not an offset, or a header whose
// duration ends before the last arrival, is an error naming the file and the
// line, never a panic or a trace the simulator refuses.
func TestReadCSVErrors(t *testing.T) {
	for _, c := range badCSVs {
		_, err := ReadCSV("f.csv", strings.NewReader(c.in))
		if err == nil || !strings.HasPrefix(err.Error(), "trace: "+c.want) {
			t.Errorf("%.30q: %v, want an error starting %q", c.in, err, "trace: "+c.want)
		}
	}
}

// headerlessCSV is TestReadCSVWithoutHeader's input.
const headerlessCSV = "# comment\n\n2.0\n# trace=y duration_s=9\n1\n-0\n"

// TestReadCSVWithoutHeader: offsets alone are sorted, the trace takes the
// given name and lasts until 1 s after its last arrival; '#' lines, blank
// lines and a header-like line after the first arrival are comments.
func TestReadCSVWithoutHeader(t *testing.T) {
	tr, err := ReadCSV("x", strings.NewReader(headerlessCSV))
	if err != nil {
		t.Fatal(err)
	}
	want := &Trace{Name: "x", Arrivals: []time.Duration{0, time.Second, 2 * time.Second}, Duration: 3 * time.Second}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("read %+v, want %+v", tr, want)
	}
	if tr, err := ReadCSV("x", strings.NewReader("")); err != nil || tr.Len() != 0 || tr.Duration != 0 {
		t.Fatalf("empty input: %+v, %v", tr, err)
	}
}

// TestResolve: a kind is generated exactly as Generate does, "fixed" as
// Fixed does, and any other argument is a CSV path.
func TestResolve(t *testing.T) {
	tr, err := Resolve("fixed", time.Second, 50, 1)
	if err != nil || !reflect.DeepEqual(tr, Fixed(50, time.Second)) || tr.Len() != 50 {
		t.Fatalf("fixed 50/s × 1s: %+v, %v", tr, err)
	}
	for _, k := range kinds {
		tr, err := Resolve(string(k), 20*time.Second, 80, 4)
		want := MustGenerate(Config{Kind: k, Duration: 20 * time.Second, PeakRate: 80, Seed: 4})
		if err != nil || !reflect.DeepEqual(tr, want) {
			t.Fatalf("%s: resolved trace differs from Generate's (%v)", k, err)
		}
		path := filepath.Join(t.TempDir(), string(k)+".csv")
		if err := want.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := Resolve(path, time.Hour, 1, 9)
		if err != nil || !reflect.DeepEqual(back, want) {
			t.Fatalf("%s via %s: %v", k, path, err)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	for _, c := range []struct {
		arg  string
		rate float64
		dur  time.Duration
		want string
	}{
		{"fixed", 0, time.Second, "fixed needs a positive rate"},
		{"fixed", 10, 0, "fixed needs a positive rate"},
		{"steady", 10, 0, "duration must be positive"},
		{"bogus", 10, time.Second, `"bogus" is neither a kind (fixed or one of [wiki tweet azure steady step]) nor a CSV file`},
	} {
		if _, err := Resolve(c.arg, c.dur, c.rate, 1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%q, %v, %v): %v, want %q", c.arg, c.dur, c.rate, err, c.want)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte("0.1\n0.2\nNaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(path, time.Second, 1, 1); err == nil || !strings.Contains(err.Error(), path+":3: ") {
		t.Fatalf("malformed CSV: %v, want the path and line 3", err)
	}
}

// Property: thinning never produces arrivals outside [0, duration) and the
// sequence is sorted.
func TestPropertyThinningBounds(t *testing.T) {
	f := func(seed int64, durSec uint8, rate uint8) bool {
		if durSec == 0 || rate == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		d := time.Duration(durSec) * time.Second
		r := float64(rate)
		arr := Thinning(func(time.Duration) float64 { return r }, r, d, rng)
		prev := time.Duration(-1)
		for _, a := range arr {
			if a < 0 || a >= d || a < prev {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rate functions are nonnegative and bounded by the reported max.
func TestPropertyRateBounded(t *testing.T) {
	for _, k := range kinds {
		c := Config{Kind: k, Duration: 500 * time.Second}
		f, maxRate, err := c.Rate()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 1000; i++ {
			at := time.Duration(i) * 500 * time.Millisecond
			r := f(at)
			if r < 0 || r > maxRate+1e-9 {
				t.Fatalf("%s: rate(%v) = %v outside [0, %v]", k, at, r, maxRate)
			}
		}
	}
}

func TestFixed(t *testing.T) {
	tr := Fixed(100, 2*time.Second)
	if tr.Len() != 200 {
		t.Fatalf("Fixed(100/s, 2s) has %d arrivals, want 200", tr.Len())
	}
	gap := 10 * time.Millisecond
	for i, a := range tr.Arrivals {
		if a != time.Duration(i)*gap {
			t.Fatalf("arrival %d at %v, want %v", i, a, time.Duration(i)*gap)
		}
	}
	if got := tr.MeanRate(); got != 100 {
		t.Fatalf("mean rate %v, want 100", got)
	}
	if st := tr.Analyze(); st.CV != 0 {
		t.Fatalf("fixed-rate CV = %v, want 0", st.CV)
	}
	if Fixed(0, time.Second) != nil || Fixed(100, 0) != nil {
		t.Fatal("degenerate Fixed configs must return nil")
	}
}

func BenchmarkGenerateTweet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate(Config{Kind: Tweet, Duration: 1400 * time.Second, Seed: int64(i)})
	}
}

// FuzzTraceCSV: ReadCSV refuses or accepts any input without panicking, and
// a trace it accepts is sorted, starts at 0 or later and lasts at least
// until its last arrival. Below 10⁶ s, where offsets keep the nanosecond,
// WriteCSV of it read back by ReadCSV writes the same bytes again.
func FuzzTraceCSV(f *testing.F) {
	for _, tr := range roundTripTraces() {
		head := *tr
		head.Arrivals = head.Arrivals[:min(len(head.Arrivals), 64)]
		var buf bytes.Buffer
		if err := head.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, c := range badCSVs {
		if len(c.in) < 1<<10 {
			f.Add([]byte(c.in))
		}
	}
	f.Add([]byte(headerlessCSV))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV("f.csv", bytes.NewReader(data))
		if err != nil {
			return
		}
		if !slices.IsSorted(tr.Arrivals) {
			t.Fatalf("arrivals not sorted: %v", tr.Arrivals)
		}
		if n := tr.Len(); n > 0 && (tr.Arrivals[0] < 0 || tr.Duration < tr.Arrivals[n-1]) {
			t.Fatalf("arrivals from %v to %v over a duration of %v", tr.Arrivals[0], tr.Arrivals[n-1], tr.Duration)
		}
		if tr.Duration >= 1e6*time.Second {
			return
		}
		var first, second bytes.Buffer
		if err := tr.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV("other", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV refuses what WriteCSV wrote: %v\n%q", err, first.Bytes())
		}
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the CSV:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
