package simgpu

import (
	"reflect"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/trace"
)

func TestFailureValidation(t *testing.T) {
	tr := steadyTrace(50, 5*time.Second, 1)
	bad := []Failure{
		{At: -time.Second, Module: 0, Count: 1},
		{At: 0, Module: 9, Count: 1},
		{At: 0, Module: 0, Count: 0},
	}
	for i, f := range bad {
		cfg := Config{Spec: pipeline.LV(), PolicyName: "pard", Trace: tr, Failures: []Failure{f}}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad failure %d accepted", i)
		}
	}
}

func TestFailureDropsInFlightWork(t *testing.T) {
	tr := steadyTrace(300, 30*time.Second, 5)
	noFail := runLV(t, "pard", tr, nil)
	failed := runLV(t, "pard", tr, func(c *Config) {
		// Kill 3 of module 2's workers mid-run.
		c.Failures = []Failure{{At: 10 * time.Second, Module: 2, Count: 3}}
	})
	// Conservation still holds.
	s := failed.Summary
	if s.Good+s.Late+s.Dropped != s.Total {
		t.Fatalf("conservation broken after failure: %+v", s)
	}
	// The failure costs goodput relative to the clean run.
	if failed.Summary.Good >= noFail.Summary.Good {
		t.Fatalf("failure had no effect: %d vs %d good", failed.Summary.Good, noFail.Summary.Good)
	}
	// Some drops are attributed to the failed module.
	if failed.Summary.PerModuleDropPct[2] <= 0 {
		t.Fatalf("no drops at the failed module: %v", failed.Summary.PerModuleDropPct)
	}
}

func TestFailureRecoveryViaScaling(t *testing.T) {
	// With scaling enabled, replacements cold-start after a failure; the
	// second half of the run recovers.
	tr := steadyTrace(300, 60*time.Second, 7)
	cfg := lvConfig("pard", tr, func(c *Config) {
		c.Failures = []Failure{{At: 20 * time.Second, Module: 0, Count: 2}}
	})
	_, reqs := runRecorded(t, cfg)
	// Goodput in the last 20s should be healthy again.
	tail := 0
	tailGood := 0
	for _, req := range reqs {
		if req.Send >= 40*time.Second {
			tail++
			if req.Finished && req.DoneAt-req.Send <= cfg.Spec.SLO {
				tailGood++
			}
		}
	}
	if tail == 0 {
		t.Fatal("no tail requests")
	}
	if frac := float64(tailGood) / float64(tail); frac < 0.8 {
		t.Fatalf("no recovery after failure: tail goodput %.2f", frac)
	}
}

func TestFailureWithoutScalingDegradesMore(t *testing.T) {
	tr := steadyTrace(400, 40*time.Second, 9)
	fail := []Failure{{At: 10 * time.Second, Module: 0, Count: 2}}
	fixed := runLV(t, "pard", tr, func(c *Config) {
		c.FixedWorkers = []int{4, 4, 4, 4, 4}
		c.Failures = fail
	})
	scaled := runLV(t, "pard", tr, func(c *Config) {
		c.Failures = fail
	})
	if fixed.Summary.Good >= scaled.Summary.Good {
		t.Fatalf("fixed cluster should suffer more from failure: fixed %d vs scaled %d good",
			fixed.Summary.Good, scaled.Summary.Good)
	}
}

func TestFailureDeterminism(t *testing.T) {
	tr := steadyTrace(300, 20*time.Second, 13)
	mut := func(c *Config) {
		c.Failures = []Failure{{At: 5 * time.Second, Module: 1, Count: 2}}
	}
	a := runLV(t, "pard", tr, mut)
	b := runLV(t, "pard", tr, mut)
	if a.Summary.Good != b.Summary.Good || a.Summary.Dropped != b.Summary.Dropped {
		t.Fatalf("failure runs diverged: %+v vs %+v", a.Summary, b.Summary)
	}
}

// TestScaleOutAndCrashPinned pins two runs that cold-start workers and crash
// some to numbers recorded before module worker pools were built in one piece
// (worker structs, queues and batch slabs carved from per-module arrays): the
// rate doubles halfway, so the scaling engine adds workers several at a time,
// and a crash drains two of module 1's queues. pard serves from a DEPQ,
// nexus from a FIFO. TestFailureDeterminism compares the engine only with
// itself; these values hold it to an independent record.
func TestScaleOutAndCrashPinned(t *testing.T) {
	tr := trace.MustGenerate(trace.Config{Kind: trace.Step, Duration: 30 * time.Second, PeakRate: 400, Seed: 21})
	for _, c := range []struct {
		policy string
		sum    metrics.Summary
		events uint64
		peak   []int
	}{
		{"pard", metrics.Summary{
			Total: 9023, Good: 3962, Late: 2, Dropped: 5059,
			DropRate: 0.560899922420481, InvalidRate: 0.14841707901526865,
			Goodput: 127.80645161290323, OfferedRate: 291.06451612903226,
			PerModuleDropPct: []float64{34.84878434473216, 56.05850958687488, 7.550899387230678, 0.21743427554852737, 1.3243724056137576},
			GPUTotal:         3*time.Minute + 30424093630, GPUWasted: 31230529331,
		}, 35889, []int{4, 3, 2, 2, 2}},
		{"nexus", metrics.Summary{
			Total: 9023, Good: 2935, Dropped: 6088,
			DropRate: 0.6747201595921534, InvalidRate: 0.26466276667413546,
			Goodput: 94.6774193548387, OfferedRate: 291.06451612903226,
			PerModuleDropPct: []float64{27.792378449408673, 54.566360052562416, 9.132720105124836, 4.829172141918528, 3.679369250985545},
			GPUTotal:         3*time.Minute + 7692807992, GPUWasted: 49675297848,
		}, 33318, []int{4, 3, 2, 2, 2}},
	} {
		res := runLV(t, c.policy, tr, func(cfg *Config) {
			cfg.Failures = []Failure{{At: 18 * time.Second, Module: 1, Count: 2}}
		})
		if !reflect.DeepEqual(res.Summary, c.sum) {
			t.Errorf("%s: summary\n got %+v\nwant %+v", c.policy, res.Summary, c.sum)
		}
		if res.SimEvents != c.events {
			t.Errorf("%s: %d events, want %d", c.policy, res.SimEvents, c.events)
		}
		if !reflect.DeepEqual(res.PeakWorkers, c.peak) {
			t.Errorf("%s: peak workers %v, want %v", c.policy, res.PeakWorkers, c.peak)
		}
	}
}

func TestCrashMoreThanActiveWorkers(t *testing.T) {
	tr := steadyTrace(100, 10*time.Second, 15)
	res := runLV(t, "pard", tr, func(c *Config) {
		c.FixedWorkers = []int{1, 1, 1, 1, 1}
		c.Failures = []Failure{{At: 2 * time.Second, Module: 0, Count: 99}}
	})
	// All of module 0's capacity died and never returns (scaling disabled):
	// every request arriving after the crash is eventually dropped, and the
	// run still terminates cleanly.
	s := res.Summary
	if s.Good+s.Late+s.Dropped != s.Total {
		t.Fatalf("conservation broken: %+v", s)
	}
	if s.Dropped == 0 {
		t.Fatal("no drops after total module failure")
	}
}
