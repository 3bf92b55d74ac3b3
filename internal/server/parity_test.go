package server

import (
	"math"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// The DA workload the two clock tests share: a bursty 40 s trace that
// overloads two workers a module, so the policy drops.
const (
	paritySeed = 9
	paritySync = 250 * time.Millisecond
	parityNet  = time.Millisecond
)

func parityWorkers() []int { return []int{2, 2, 2, 2, 2} }

func parityTrace() *trace.Trace {
	return trace.MustGenerate(trace.Config{
		Kind:     trace.Tweet,
		Duration: 40 * time.Second,
		PeakRate: 500,
		Seed:     5,
	})
}

// simShell is the live server shell on a fake wall clock with the config
// the simulator's defaults give (1 ms net hop, 5% execution jitter).
func simShell(t *testing.T) (*Server, *sched.LaneExecutor) {
	man := sched.NewManualExecutor()
	srv, err := newServer(Config{
		Spec:       pipeline.DA(),
		PolicyName: "pard",
		Workers:    parityWorkers(),
		SyncPeriod: paritySync,
		Seed:       paritySeed,
		Exec:       man,
	}, sched.Config{
		NetDelay:  parityNet,
		JitterPct: 0.05,
		Probes:    sched.ProbeConfig{LoadFactor: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, man
}

// replayOnLiveShell is the live side of the parity tests: srv on the manual
// clock man, started and fed the trace's arrival sequence request by
// request. It returns every response in arrival order and the core's record
// of every request, and stops the server.
func replayOnLiveShell(t *testing.T, srv *Server, man *sched.LaneExecutor, tr *trace.Trace) ([]Response, []*sched.Request) {
	srv.Start()
	prs := make([]*pendingReq, 0, tr.Len())
	for _, at := range tr.Arrivals {
		man.RunUntil(at)
		prs = append(prs, srv.submit())
	}
	// Step virtual time forward until every response resolved.
	resps := make([]Response, len(prs))
	next := 0
	for deadline := man.Now(); next < len(prs); deadline += paritySync {
		man.RunUntil(deadline)
		for ; next < len(prs); next++ {
			select {
			case r := <-prs[next].done:
				resps[next] = r
			default:
				goto stepped
			}
		}
	stepped:
		if deadline > tr.Duration+time.Minute {
			t.Fatalf("live shell stalled: %d/%d responses after %v", next, len(prs), deadline)
		}
	}
	// Tick past the virtual-clock side's drain point so the live mode series
	// covers at least as many syncs as that side recorded.
	man.RunUntil(man.Now() + 4*paritySync)
	srv.Stop()
	reqs := make([]*sched.Request, len(prs))
	for i, pr := range prs {
		reqs[i] = &pr.req
	}
	return resps, reqs
}

// sameFates fails the test unless every request met the same fate on both
// sides: completed at the same instant, or dropped at the same module at the
// same instant. It returns the number of drops.
func sameFates(t *testing.T, sim, live []*sched.Request) int {
	t.Helper()
	if len(sim) != len(live) {
		t.Fatalf("request counts differ: sim %d, live %d", len(sim), len(live))
	}
	type fate struct {
		finished, dropped bool
		module            int
		at                time.Duration
	}
	fateOf := func(r *sched.Request) fate {
		if r.Dropped {
			return fate{dropped: true, module: r.DropModule, at: r.DropAt}
		}
		return fate{finished: r.Finished, module: -1, at: r.DoneAt}
	}
	differ, drops := 0, 0
	for i := range sim {
		s, l := fateOf(sim[i]), fateOf(live[i])
		if !s.finished && !s.dropped {
			t.Fatalf("request %d never resolved in the simulator", i)
		}
		if s.dropped {
			drops++
		}
		if s != l {
			if differ++; differ <= 5 {
				t.Errorf("request %d: sim %+v, live %+v", i, s, l)
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d requests met a different fate", differ, len(sim))
	}
	if drops == 0 {
		t.Fatal("workload produced no drops; the comparison is vacuous")
	}
	return drops
}

// TestVirtualWallClockParity proves the tentpole claim of the shared
// scheduling core: the *same* DAG workload queued whole and drained on a
// virtual clock, the way a simulator runs it, and fed request by request
// through the live server shell under an injected fake wall clock produces
// *identical* per-request outcomes — every drop at the same module, every
// completion at the same virtual instant — and identical per-sync priority
// decisions (load factor and HBF/LBF mode). Both sides run the lane engine
// on the manual clock, one drained whole, one stepped arrival by arrival;
// the simulator's own runner against the live shell is
// TestLaneSimTracksLiveShell's.
func TestVirtualWallClockParity(t *testing.T) {
	spec := pipeline.DA()
	tr := parityTrace()

	// Side A: the bare core on its own virtual clock: the whole trace
	// injected before the clock starts, a sync tick that reschedules itself
	// until nothing is outstanding and the trace has ended, then one drain.
	// Side B replays the same arrival sequence with the same config and seed,
	// so the shared core sees bit-identical inputs.
	virt := sched.NewManualExecutor()
	outstanding := tr.Len()
	cl, err := sched.New(sched.Config{
		Spec:       spec,
		Lib:        profile.DefaultLibrary(),
		PolicyName: "pard",
		Seed:       paritySeed,
		Workers:    parityWorkers(),
		NetDelay:   parityNet,
		JitterPct:  0.05,
		Probes:     sched.ProbeConfig{LoadFactor: true},
		OnDone:     func(*sched.Request, time.Duration) { outstanding-- },
		OnDrop:     func(*sched.Request, int, time.Duration) { outstanding-- },
	}, virt)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]sched.Request, tr.Len())
	for i, at := range tr.Arrivals {
		reqs[i] = sched.Request{ID: uint64(i), Send: at, Deadline: at + spec.SLO, DropModule: -1}
		cl.Inject(&reqs[i], at)
	}
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		cl.SyncTick(now)
		if outstanding > 0 || now < tr.Duration {
			virt.Schedule(now+paritySync, "sync", tick)
		}
	}
	virt.Schedule(paritySync, "sync", tick)
	virt.Run()

	srv, man := simShell(t)
	resps, _ := replayOnLiveShell(t, srv, man, tr)

	// Per-request decisions: outcome, drop site and timing must all match.
	drops := 0
	for i := range reqs {
		req := &reqs[i]
		want := Response{ID: req.ID}
		end := req.DoneAt
		switch {
		case req.Finished && req.DoneAt <= req.Deadline:
			want.Outcome = OutcomeGood
		case req.Finished:
			want.Outcome = OutcomeLate
		case req.Dropped:
			want.Outcome, want.DropModule, end = OutcomeDropped, req.DropModule, req.DropAt
			drops++
		default:
			t.Fatalf("request %d never resolved on the virtual clock", i)
		}
		want.LatencyMS = float64((end - req.Send).Microseconds()) / 1000
		if resps[i] != want {
			t.Fatalf("request %d diverged: sim %+v, live %+v", i, want, resps[i])
		}
	}
	if drops == 0 {
		t.Fatal("workload produced no drops; parity test is vacuous")
	}

	// Per-sync priority decisions at the source module: side A's series
	// must be a prefix of the live one (the live shell keeps ticking until
	// Stop, side A stops at drain).
	sim, live := cl.Probes(spec.Source()), srv.cl.Probes(spec.Source())
	if sim.Mode.Len() == 0 || live.Mode.Len() < sim.Mode.Len() {
		t.Fatalf("mode series too short: sim %d, live %d", sim.Mode.Len(), live.Mode.Len())
	}
	for i := range sim.Mode.V {
		if sim.Mode.V[i] != live.Mode.V[i] || sim.Mode.T[i] != live.Mode.T[i] {
			t.Fatalf("priority mode diverged at sync %d: sim (%v,%v), live (%v,%v)",
				i, sim.Mode.T[i], sim.Mode.V[i], live.Mode.T[i], live.Mode.V[i])
		}
		if sim.Load.V[i] != live.Load.V[i] {
			t.Fatalf("load factor diverged at sync %d: sim %v, live %v",
				i, sim.Load.V[i], live.Load.V[i])
		}
	}
}

// TestLaneSimTracksLiveShell is the regression guard behind pard-load
// -compare-sim: the same workload through the simulator users run (the lane
// engine at its defaults: 1 ms hops, 5 % jitter) and through the live shell
// on the manual clock. Both are the lane engine with the same ties, the same
// windows and the same commits at the barrier, so every request must meet
// the same fate: completed at the same instant, or dropped at the same module
// at the same instant.
func TestLaneSimTracksLiveShell(t *testing.T) {
	tr := parityTrace()
	runner, err := simgpu.New(simgpu.Config{
		Spec:         pipeline.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         paritySeed,
		SyncPeriod:   paritySync,
		FixedWorkers: parityWorkers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	srv, man := simShell(t)
	_, live := replayOnLiveShell(t, srv, man, tr)
	drops := sameFates(t, runner.Requests(), live)

	sim, got := res.Summary, srv.Summary()
	if sim.Good != got.Good || sim.Late != got.Late || sim.Dropped != got.Dropped {
		t.Errorf("good/late/dropped: sim %d/%d/%d, live %d/%d/%d", sim.Good, sim.Late, sim.Dropped, got.Good, got.Late, got.Dropped)
	}
	if gap := math.Abs(sim.Goodput-got.Goodput) / got.Goodput; gap > 0.01 {
		t.Errorf("goodput: sim %.2f, live %.2f, %.2f%% apart, want <= 1%%", sim.Goodput, got.Goodput, 100*gap)
	}
	t.Logf("%d requests, %d dropped, alike; goodput sim %.2f live %.2f", len(live), drops, sim.Goodput, got.Goodput)
}

// TestTwinAtServerDefaults: the twin pard-load -compare-sim runs (RunTwin's
// settings) and the live shell under New's defaults — no hop delay, no
// jitter, two workers a module — decide every request alike on the DA
// workload.
func TestTwinAtServerDefaults(t *testing.T) {
	tr := parityTrace()
	man := sched.NewManualExecutor()
	cfg := Config{Spec: pipeline.DA(), Seed: paritySeed, Exec: man}
	sc, err := twinConfig(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := simgpu.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, live := replayOnLiveShell(t, srv, man, tr)
	drops := sameFates(t, runner.Requests(), live)

	twin, err := RunTwin(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum := srv.Summary(); twin.Summary.Good != sum.Good || twin.Summary.Dropped != sum.Dropped {
		t.Errorf("good/dropped: twin %d/%d, live %d/%d", twin.Summary.Good, twin.Summary.Dropped, sum.Good, sum.Dropped)
	}
	t.Logf("%d requests, %d dropped, alike; twin good %d", len(live), drops, twin.Summary.Good)
}
