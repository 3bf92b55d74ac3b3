package profile

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func validModel() Model {
	return Model{Name: "m", Alpha: 10 * time.Millisecond, Beta: 2 * time.Millisecond, MaxBatch: 16}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Model)
		ok     bool
	}{
		{func(m *Model) {}, true},
		{func(m *Model) { m.Name = "" }, false},
		{func(m *Model) { m.Alpha = -1 }, false},
		{func(m *Model) { m.Beta = 0 }, false},
		{func(m *Model) { m.MaxBatch = 0 }, false},
		{func(m *Model) { m.JitterPct = 0.9 }, false},
		{func(m *Model) { m.JitterPct = 0.1 }, true},
	}
	for i, c := range cases {
		m := validModel()
		c.mutate(&m)
		if err := m.Validate(); (err == nil) != c.ok {
			t.Fatalf("case %d: err = %v, ok = %v", i, err, c.ok)
		}
	}
}

func TestDuration(t *testing.T) {
	m := validModel()
	if got := m.Duration(1); got != 12*time.Millisecond {
		t.Fatalf("d(1) = %v", got)
	}
	if got := m.Duration(8); got != 26*time.Millisecond {
		t.Fatalf("d(8) = %v", got)
	}
	if got := m.Duration(0); got != m.Duration(1) {
		t.Fatal("b<1 not clamped")
	}
	if got := m.Duration(100); got != m.Duration(16) {
		t.Fatal("b>MaxBatch not clamped")
	}
}

func TestThroughputIncreasesWithBatch(t *testing.T) {
	m := validModel()
	prev := 0.0
	for b := 1; b <= m.MaxBatch; b++ {
		tp := m.Throughput(b)
		if tp <= prev {
			t.Fatalf("throughput not increasing at b=%d: %v <= %v", b, tp, prev)
		}
		prev = tp
	}
	best, bestB := m.MaxThroughput()
	if bestB != m.MaxBatch || best != m.Throughput(m.MaxBatch) {
		t.Fatalf("MaxThroughput = %v@%d", best, bestB)
	}
}

func TestBestBatch(t *testing.T) {
	m := validModel() // d(b) = 10 + 2b ms
	cases := []struct {
		budget time.Duration
		want   int
	}{
		{11 * time.Millisecond, 0}, // even b=1 (12ms) doesn't fit
		{12 * time.Millisecond, 1}, // exactly b=1
		{20 * time.Millisecond, 5}, // 10+2*5=20
		{21 * time.Millisecond, 5}, // b=5 fits, b=6 is 22ms
		{1 * time.Second, 16},      // capped at MaxBatch
		{41999 * time.Microsecond, 15},
	}
	for _, c := range cases {
		if got := m.BestBatch(c.budget); got != c.want {
			t.Fatalf("BestBatch(%v) = %d, want %d", c.budget, got, c.want)
		}
	}
}

// Property: BestBatch result always fits within budget and is maximal.
func TestPropertyBestBatchMaximal(t *testing.T) {
	f := func(alphaMs, betaMs uint8, budgetMs uint16) bool {
		m := Model{
			Name:     "p",
			Alpha:    time.Duration(alphaMs) * time.Millisecond,
			Beta:     time.Duration(betaMs%50+1) * time.Millisecond,
			MaxBatch: 32,
		}
		budget := time.Duration(budgetMs) * time.Millisecond
		b := m.BestBatch(budget)
		if b == 0 {
			return m.Duration(1) > budget
		}
		if m.Duration(b) > budget {
			return false
		}
		if b < m.MaxBatch && m.Duration(b+1) <= budget {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLibraryAddGet(t *testing.T) {
	l := NewLibrary()
	if err := l.Add(validModel()); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(validModel()); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := l.Get("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get("nope"); err == nil {
		t.Fatal("unknown model found")
	}
	bad := validModel()
	bad.Beta = 0
	if err := l.Add(bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestLibrarySaveLoadRoundTrip(t *testing.T) {
	l := DefaultLibrary()
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Models) != len(l.Models) {
		t.Fatalf("round trip lost models: %d vs %d", len(back.Models), len(l.Models))
	}
	for name, m := range l.Models {
		if back.Models[name] != m {
			t.Fatalf("model %s changed: %+v vs %+v", name, back.Models[name], m)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"models":{"a":{"name":"b","alpha_ns":1,"beta_ns":1,"max_batch":1}}}`)); err == nil {
		t.Fatal("key/name mismatch accepted")
	}
	// Name filled from key when omitted.
	l, err := Load(strings.NewReader(`{"models":{"a":{"alpha_ns":1000,"beta_ns":1000,"max_batch":4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := l.Get("a"); m.Name != "a" {
		t.Fatalf("name not defaulted: %+v", m)
	}
	// Empty object gets a usable empty map.
	l2, err := Load(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if l2.Models == nil {
		t.Fatal("nil models map")
	}
}

func TestDefaultLibraryCoversPaperModels(t *testing.T) {
	l := DefaultLibrary()
	required := []string{
		"objdet", "facerec", "textrec", // tm
		"persondet", "exprrec", "eyetrack", "poserec", // lv (+facerec)
		"gameobj", "killdet", "alivecount", "healthval", "iconrec", // gm
	}
	for _, name := range required {
		m, err := l.Get(name)
		if err != nil {
			t.Fatalf("missing %s", name)
		}
		// Every model must sustain tens of req/s at max batch so the paper's
		// request rates are servable by a multi-worker pool per module.
		if tp, _ := m.MaxThroughput(); tp < 60 {
			t.Fatalf("%s max throughput %v too low for paper workloads", name, tp)
		}
	}
}

func BenchmarkBestBatch(b *testing.B) {
	m := validModel()
	for i := 0; i < b.N; i++ {
		m.BestBatch(time.Duration(i%100) * time.Millisecond)
	}
}

// fingerprintFNV is the fingerprint as fmt and hash/fnv define it: FNV-64a
// over each model's line in name order.
func fingerprintFNV(l *Library) uint64 {
	names := make([]string, 0, len(l.Models))
	for name := range l.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		m := l.Models[name]
		fmt.Fprintf(h, "%s|%d|%d|%d|%v\x00", name, m.Alpha, m.Beta, m.MaxBatch, m.JitterPct)
	}
	return h.Sum64()
}

// TestFingerprintMatchesFNV: the inline hash is the fmt + hash/fnv one, so
// every library keeps the fingerprint its peers compare, whatever form its
// jitter takes in decimal; and it allocates only its sorted name list.
func TestFingerprintMatchesFNV(t *testing.T) {
	libs := []*Library{DefaultLibrary(), NewLibrary()}
	tenth := 0.1 // a variable, so that the sum below is rounded: 0.30000000000000004
	for _, jitter := range []float64{0, 12.5, 1e-7, 1e21, tenth + 0.2} {
		l := NewLibrary()
		for i, m := range []Model{validModel(), {Name: "a-much-longer-model-name", Alpha: -1 << 62, Beta: 1<<63 - 1, MaxBatch: -1 << 63}} {
			m.Name += fmt.Sprint(i)
			m.JitterPct = jitter
			l.Models[m.Name] = m // unvalidated: the widest fields the hash must format
		}
		libs = append(libs, l)
	}
	for i, l := range libs {
		if got, want := l.Fingerprint(), fingerprintFNV(l); got != want {
			t.Errorf("library %d: Fingerprint() = %016x, want %016x", i, got, want)
		}
	}
	lib := DefaultLibrary()
	if avg := testing.AllocsPerRun(100, func() { lib.Fingerprint() }); avg > 1 {
		t.Fatalf("Fingerprint allocates %.1f, want at most 1 (the name list)", avg)
	}
}

// TestAllocsDefault: a process builds the default library once. Default
// hands out one library, equal to a fresh DefaultLibrary, and allocates
// nothing after its first call; DefaultLibrary builds a new library, which a
// caller may add to, every time.
func TestAllocsDefault(t *testing.T) {
	shared := Default()
	if avg := testing.AllocsPerRun(100, func() {
		if Default() != shared {
			t.Fatal("Default returned another library")
		}
	}); avg != 0 {
		t.Fatalf("Default allocates %.1f times a call, want 0", avg)
	}
	fresh := DefaultLibrary()
	if fresh == shared || fresh.Fingerprint() != shared.Fingerprint() {
		t.Fatalf("DefaultLibrary = %p (fingerprint %016x), the shared default %p (%016x): want a copy", fresh, fresh.Fingerprint(), shared, shared.Fingerprint())
	}
}
