package policy

import (
	"math/rand"
	"testing"
	"time"

	"pard/internal/core"
	"pard/internal/pipeline"
)

func lvSetup() Setup {
	spec := pipeline.LV()
	durs := make([]time.Duration, spec.N())
	for i := range durs {
		durs[i] = 30 * time.Millisecond
	}
	return Setup{Spec: spec, Durs: durs, Rng: rand.New(rand.NewSource(1))}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("table has %d policies, want 16: %v", len(names), names)
	}
	for _, name := range names {
		p, err := New(name, lvSetup())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %s reports name %s", name, p.Name())
		}
	}
	if _, err := New("bogus", lvSetup()); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestComparisonAndAblationsRegistered(t *testing.T) {
	for _, name := range append(Comparison(), Ablations()...) {
		if _, err := New(name, lvSetup()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSetupValidation(t *testing.T) {
	s := lvSetup()
	s.Spec = nil
	if _, err := New("pard", s); err == nil {
		t.Fatal("nil spec accepted")
	}
	s = lvSetup()
	s.Durs = s.Durs[:2]
	if _, err := New("pard", s); err == nil {
		t.Fatal("short durs accepted")
	}
	s = lvSetup()
	s.Rng = nil
	if _, err := New("pard", s); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestQueueKinds(t *testing.T) {
	want := map[string]QueueKind{
		"naive": KindFIFO, "clipper++": KindFIFO, "nexus": KindFIFO, "pard-fcfs": KindFIFO,
		"pard": KindDEPQ, "pard-back": KindDEPQ, "pard-sf": KindDEPQ, "pard-oc": KindDEPQ,
		"pard-split": KindDEPQ, "pard-wcl": KindDEPQ, "pard-lower": KindDEPQ,
		"pard-upper": KindDEPQ, "pard-instant": KindDEPQ, "pard-hbf": KindDEPQ, "pard-lbf": KindDEPQ,
	}
	for name, kind := range want {
		p, err := New(name, lvSetup())
		if err != nil {
			t.Fatal(err)
		}
		if p.Queue() != kind {
			t.Fatalf("%s queue = %d, want %d", name, p.Queue(), kind)
		}
	}
}

func ctxAt(module int, sent, now, te time.Duration) DecideCtx {
	return DecideCtx{
		Req:           RequestInfo{Send: sent, Deadline: sent + 500*time.Millisecond, ArriveModule: now},
		Module:        module,
		Now:           now,
		ExpectedStart: te,
		ExecDur:       30 * time.Millisecond,
		SLO:           500 * time.Millisecond,
	}
}

func TestNaiveNeverDrops(t *testing.T) {
	p, _ := New("naive", lvSetup())
	// Even a hopeless request is kept.
	if !p.Decide(ctxAt(4, 0, 10*time.Second, 10*time.Second)) {
		t.Fatal("naive dropped")
	}
	if !p.Admit(0, 0, RequestInfo{}) {
		t.Fatal("naive rejected admission")
	}
}

func TestNexusDropsOnCurrentModuleOnly(t *testing.T) {
	p, _ := New("nexus", lvSetup())
	// Finishes current module at 400ms < 500ms SLO → keep, even though 4
	// more modules follow (the reactive drop-too-late flaw).
	if !p.Decide(ctxAt(0, 0, 350*time.Millisecond, 370*time.Millisecond)) {
		t.Fatal("nexus dropped a request that fits the current module")
	}
	// 480ms + 30ms exec > 500ms → drop.
	if p.Decide(ctxAt(0, 0, 470*time.Millisecond, 480*time.Millisecond)) {
		t.Fatal("nexus kept a request missing the SLO in the current module")
	}
}

func TestClipperDropsOnCumulativeBudget(t *testing.T) {
	p, _ := New("clipper++", lvSetup())
	// Equal durations → cumulative budget at module 0 is 100ms.
	if p.Decide(ctxAt(0, 0, 150*time.Millisecond, 150*time.Millisecond)) {
		t.Fatal("clipper++ kept a request over its module-0 budget")
	}
	if !p.Decide(ctxAt(0, 0, 50*time.Millisecond, 90*time.Millisecond)) {
		t.Fatal("clipper++ dropped a request within budget")
	}
	// At the last module the full SLO is available.
	if !p.Decide(ctxAt(4, 0, 450*time.Millisecond, 460*time.Millisecond)) {
		t.Fatal("clipper++ dropped within end-to-end budget at sink")
	}
}

func syncedPARD(t *testing.T, name string) Policy {
	t.Helper()
	p, err := New(name, lvSetup())
	if err != nil {
		t.Fatal(err)
	}
	spec := pipeline.LV()
	board := core.NewBoard(spec.N())
	for k := 0; k < spec.N(); k++ {
		board.Publish(k, core.ModuleState{
			QueueDelay:  5 * time.Millisecond,
			ProfiledDur: 30 * time.Millisecond,
			BatchWait:   []float64{0.010, 0.020, 0.030},
			InputRate:   100,
			Throughput:  200,
		})
	}
	p.OnSync(time.Second, board)
	return p
}

func TestPARDDropsProactively(t *testing.T) {
	p := syncedPARD(t, "pard")
	// At module 0 with 4 downstream modules (4×(5+30)=140ms + wait quantile),
	// a request whose batch starts at 400ms cannot finish by 500ms even
	// though the current module alone would fit — Nexus would keep it.
	ctx := ctxAt(0, 0, 390*time.Millisecond, 400*time.Millisecond)
	if p.Decide(ctx) {
		t.Fatal("pard kept a request with insufficient downstream budget")
	}
	nexus, _ := New("nexus", lvSetup())
	if !nexus.Decide(ctx) {
		t.Fatal("nexus should keep this request (reactive)")
	}
	// A fresh request passes.
	if !p.Decide(ctxAt(0, 0, 10*time.Millisecond, 20*time.Millisecond)) {
		t.Fatal("pard dropped a healthy request")
	}
	// At the sink PARD behaves like Nexus (no downstream).
	if !p.Decide(ctxAt(4, 0, 400*time.Millisecond, 450*time.Millisecond)) {
		t.Fatal("pard dropped at sink despite fitting")
	}
}

func TestPARDOrderingLowerPARDUpper(t *testing.T) {
	lower := syncedPARD(t, "pard-lower")
	mid := syncedPARD(t, "pard")
	upper := syncedPARD(t, "pard-upper")
	// Find a te where the three disagree: upper drops earliest, lower last.
	var dropAtLower, dropAtMid, dropAtUpper time.Duration
	for te := 100 * time.Millisecond; te <= 500*time.Millisecond; te += time.Millisecond {
		ctx := ctxAt(0, 0, te, te)
		if dropAtUpper == 0 && !upper.Decide(ctx) {
			dropAtUpper = te
		}
		if dropAtMid == 0 && !mid.Decide(ctx) {
			dropAtMid = te
		}
		if dropAtLower == 0 && !lower.Decide(ctx) {
			dropAtLower = te
		}
	}
	if !(dropAtUpper < dropAtMid && dropAtMid < dropAtLower) {
		t.Fatalf("drop thresholds not ordered: upper=%v mid=%v lower=%v",
			dropAtUpper, dropAtMid, dropAtLower)
	}
}

func TestPARDBackMatchesNexusCondition(t *testing.T) {
	back := syncedPARD(t, "pard-back")
	nexus, _ := New("nexus", lvSetup())
	for te := 100 * time.Millisecond; te <= 600*time.Millisecond; te += 10 * time.Millisecond {
		ctx := ctxAt(0, 0, te, te)
		if back.Decide(ctx) != nexus.Decide(ctx) {
			t.Fatalf("pard-back and nexus disagree at te=%v", te)
		}
	}
}

func TestAdaptivePopEnd(t *testing.T) {
	p, _ := New("pard", lvSetup())
	board := core.NewBoard(5)
	// Module 0 overloaded (μ=2), module 1 steady (μ=0.5).
	board.Publish(0, core.ModuleState{InputRate: 200, Throughput: 100})
	board.Publish(1, core.ModuleState{InputRate: 50, Throughput: 100})
	for k := 2; k < 5; k++ {
		board.Publish(k, core.ModuleState{InputRate: 50, Throughput: 100})
	}
	p.OnSync(time.Second, board)
	if p.PopEnd(0) != MaxEnd {
		t.Fatal("overloaded module should use HBF (max end)")
	}
	if p.PopEnd(1) != MinEnd {
		t.Fatal("steady module should use LBF (min end)")
	}
}

func TestFixedPriorityPolicies(t *testing.T) {
	// A pinned HBF row pops the min end until its first sync and the max end
	// from then on, whatever the load; a pinned LBF row always pops the min
	// end.
	fresh, err := New("pard-hbf", lvSetup())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if fresh.PopEnd(k) != MinEnd {
			t.Fatal("pard-hbf popped max before its first sync")
		}
	}
	hbf := syncedPARD(t, "pard-hbf")
	lbf := syncedPARD(t, "pard-lbf")
	check := func(load string) {
		t.Helper()
		for k := 0; k < 5; k++ {
			if hbf.PopEnd(k) != MaxEnd {
				t.Fatalf("pard-hbf popped min after a sync at %s", load)
			}
			if lbf.PopEnd(k) != MinEnd {
				t.Fatalf("pard-lbf popped max after a sync at %s", load)
			}
		}
	}
	check("μ = 0.5")
	overload := core.NewBoard(5)
	for k := 0; k < 5; k++ {
		overload.Publish(k, core.ModuleState{InputRate: 400, Throughput: 100})
	}
	hbf.OnSync(2*time.Second, overload)
	lbf.OnSync(2*time.Second, overload)
	check("μ = 4")
}

func TestPARDOCAdmission(t *testing.T) {
	s := lvSetup()
	p, err := New("pard-oc", s)
	if err != nil {
		t.Fatal(err)
	}
	board := core.NewBoard(5)
	// Module 3 heavily queued → modules 0-3 shed, module 4 does not.
	for k := 0; k < 5; k++ {
		st := core.ModuleState{QueueDelay: time.Millisecond, InputRate: 10, Throughput: 100}
		if k == 3 {
			st.QueueDelay = 100 * time.Millisecond
		}
		board.Publish(k, st)
	}
	p.OnSync(time.Second, board)
	countAdmitted := func(module int) int {
		n := 0
		for i := 0; i < 1000; i++ {
			if p.Admit(module, 0, RequestInfo{}) {
				n++
			}
		}
		return n
	}
	a0 := countAdmitted(0)
	if a0 > 700 || a0 < 500 { // admit rate (1-α) = 0.6
		t.Fatalf("module 0 admitted %d/1000, want ≈600", a0)
	}
	if a4 := countAdmitted(4); a4 != 1000 {
		t.Fatalf("module 4 admitted %d/1000, want all (no downstream overload)", a4)
	}
	// Overload clears → no shedding anywhere.
	for k := 0; k < 5; k++ {
		board.Publish(k, core.ModuleState{QueueDelay: time.Millisecond})
	}
	p.OnSync(2*time.Second, board)
	if got := countAdmitted(0); got != 1000 {
		t.Fatalf("module 0 admitted %d/1000 after overload cleared", got)
	}
}

func TestPARDWCLReallocates(t *testing.T) {
	p, err := New("pard-wcl", lvSetup())
	if err != nil {
		t.Fatal(err)
	}
	u := p.(*unified)
	initial := append([]time.Duration(nil), u.cumBudgets...)
	board := core.NewBoard(5)
	// Module 2 has huge worst-case latency → its budget share grows.
	for k := 0; k < 5; k++ {
		wcl := 20 * time.Millisecond
		if k == 2 {
			wcl = 200 * time.Millisecond
		}
		board.Publish(k, core.ModuleState{WCL: wcl})
	}
	p.OnSync(time.Second, board)
	if u.cumBudgets[2]-u.cumBudgets[1] <= initial[2]-initial[1] {
		t.Fatalf("WCL did not grow module 2's budget: %v vs %v", u.cumBudgets, initial)
	}
	// Budgets still sum to the SLO.
	if got := u.cumBudgets[4]; got < 499*time.Millisecond || got > 501*time.Millisecond {
		t.Fatalf("budgets sum to %v, want ≈500ms", got)
	}
	// No WCL data yet → keep previous budgets.
	p2, _ := New("pard-wcl", lvSetup())
	u2 := p2.(*unified)
	before := append([]time.Duration(nil), u2.cumBudgets...)
	p2.OnSync(time.Second, core.NewBoard(5))
	for i := range before {
		if u2.cumBudgets[i] != before[i] {
			t.Fatal("budgets changed without WCL data")
		}
	}
}

func TestPARDSplitStricterThanPARD(t *testing.T) {
	split := syncedPARD(t, "pard-split")
	// A request that over-consumed budget early: at module 0, te=150ms with
	// cumulative budget 100ms → split drops.
	ctx := ctxAt(0, 0, 140*time.Millisecond, 150*time.Millisecond)
	if split.Decide(ctx) {
		t.Fatal("pard-split kept a request over module budget")
	}
}

func TestPolicyDeterminism(t *testing.T) {
	run := func() []bool {
		s := lvSetup()
		p, _ := New("pard-oc", s)
		board := core.NewBoard(5)
		for k := 0; k < 5; k++ {
			board.Publish(k, core.ModuleState{QueueDelay: 50 * time.Millisecond})
		}
		p.OnSync(time.Second, board)
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, p.Admit(0, 0, RequestInfo{}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("oc admission not deterministic under fixed seed")
		}
	}
}

func BenchmarkPARDDecide(b *testing.B) {
	s := lvSetup()
	p, _ := New("pard", s)
	board := core.NewBoard(5)
	for k := 0; k < 5; k++ {
		board.Publish(k, core.ModuleState{
			QueueDelay: 5 * time.Millisecond, ProfiledDur: 30 * time.Millisecond,
			BatchWait: []float64{0.01, 0.02}, InputRate: 100, Throughput: 200,
		})
	}
	p.OnSync(time.Second, board)
	ctx := ctxAt(0, 0, 100*time.Millisecond, 110*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Decide(ctx)
	}
}
