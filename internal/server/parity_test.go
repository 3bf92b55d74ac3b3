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

// replayOnLiveShell is side B of both tests: the live server shell on a fake
// wall clock, fed the trace's arrival sequence request by request with the
// config the simulator's defaults give (1 ms net hop, 5% execution jitter).
// It returns every response in arrival order and the stopped server.
func replayOnLiveShell(t *testing.T, tr *trace.Trace) ([]Response, *Server) {
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
	srv.Start()
	chans := make([]<-chan Response, 0, tr.Len())
	for _, at := range tr.Arrivals {
		man.RunUntil(at)
		chans = append(chans, srv.Submit())
	}
	// Step virtual time forward until every response resolved.
	resps := make([]Response, len(chans))
	next := 0
	for deadline := man.Now(); next < len(chans); deadline += paritySync {
		man.RunUntil(deadline)
		for ; next < len(chans); next++ {
			select {
			case r := <-chans[next]:
				resps[next] = r
			default:
				goto stepped
			}
		}
	stepped:
		if deadline > tr.Duration+time.Minute {
			t.Fatalf("live shell stalled: %d/%d responses after %v", next, len(chans), deadline)
		}
	}
	// Tick past the virtual-clock side's drain point so the live mode series
	// covers at least as many syncs as that side recorded.
	man.RunUntil(man.Now() + 4*paritySync)
	srv.Stop()
	return resps, srv
}

// TestVirtualWallClockParity proves the tentpole claim of the shared
// scheduling core: the *same* DAG workload queued whole and drained on a
// virtual clock, the way a simulator runs it, and fed request by request
// through the live server shell under an injected fake wall clock produces
// *identical* per-request outcomes — every drop at the same module, every
// completion at the same virtual instant — and identical per-sync priority
// decisions (load factor and HBF/LBF mode). The lane engine's own order is
// the differential harness's business (internal/sched); how closely it
// tracks the live shell is TestLaneSimTracksLiveShell's.
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
	virt.Drain()

	resps, srv := replayOnLiveShell(t, tr)

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
// engine at its defaults) and through the live shell. The two are not
// identical — lanes break equal-timestamp ties by module and commit drops at
// the window barrier, the live shell's one queue breaks them by schedule
// order and commits at once — so agreement is statistical. Measured: 1.3 % of
// per-request outcomes differ, good counts 0.2 % of requests apart, goodput
// 0.23 % apart; the bounds leave room for a changed tie, not for either
// side's drop behaviour drifting from the other's.
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
	resps, srv := replayOnLiveShell(t, tr)

	reqs := runner.Requests()
	if len(reqs) != len(resps) {
		t.Fatalf("request counts differ: sim %d, live %d", len(reqs), len(resps))
	}
	differ := 0
	for i, req := range reqs {
		sim := OutcomeDropped
		if req.Finished && req.DoneAt-req.Send <= pipeline.DA().SLO {
			sim = OutcomeGood
		} else if req.Finished {
			sim = OutcomeLate
		}
		if sim != resps[i].Outcome {
			differ++
		}
	}
	n := float64(len(reqs))
	sim, live := res.Summary, srv.Summary()
	if sim.Dropped == 0 || live.Dropped == 0 {
		t.Fatalf("workload produced no drops (sim %d, live %d); the comparison is vacuous", sim.Dropped, live.Dropped)
	}
	if share := float64(differ) / n; share > 0.03 {
		t.Errorf("%d of %d per-request outcomes differ (%.2f%%), want <= 3%%", differ, len(reqs), 100*share)
	}
	if gap := math.Abs(float64(sim.Good-live.Good)) / n; gap > 0.01 {
		t.Errorf("good: sim %d, live %d, %.2f%% of requests apart, want <= 1%%", sim.Good, live.Good, 100*gap)
	}
	if gap := math.Abs(sim.Goodput-live.Goodput) / live.Goodput; gap > 0.01 {
		t.Errorf("goodput: sim %.2f, live %.2f, %.2f%% apart, want <= 1%%", sim.Goodput, live.Goodput, 100*gap)
	}
	t.Logf("outcomes differing %d/%d; good sim %d live %d; goodput sim %.2f live %.2f",
		differ, len(reqs), sim.Good, live.Good, sim.Goodput, live.Goodput)
}
