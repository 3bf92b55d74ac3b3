package sched

import (
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/profile"
)

// TestWCLWindowOnlyForReaders: only a policy that reads ModuleState.WCL
// (pard-wcl) pays for it. Under any other, no module keeps a Q+W+D window or
// its publish scratch, and every published WCL is 0; under pard-wcl every
// module keeps one, and a loaded run publishes a positive WCL.
func TestWCLWindowOnlyForReaders(t *testing.T) {
	spec := pipeline.LV()
	for _, name := range policy.Names() {
		man := NewManualExecutor()
		workers := make([]int, spec.N())
		for k := range workers {
			workers[k] = 2
		}
		cl, err := New(Config{Spec: spec, Lib: profile.DefaultLibrary(), PolicyName: name, Seed: 1, Workers: workers, NetDelay: time.Millisecond}, man)
		if err != nil {
			t.Fatal(err)
		}
		reads := name == "pard-wcl"
		if wr, ok := cl.Policy().(policy.WCLReader); !ok || wr.ReadsWCL() != reads {
			t.Fatalf("%s: ReadsWCL is not %t", name, reads)
		}
		const rate, horizon = 300, 2 * time.Second
		arrivals := make([]time.Duration, 0, rate*2)
		for at := time.Duration(0); at < horizon; at += time.Second / rate {
			arrivals = append(arrivals, at)
			cl.Inject(&Request{ID: uint64(len(arrivals)), Send: at, Deadline: at + spec.SLO}, at)
		}
		cl.Reserve(arrivals)
		var published bool
		for at := 100 * time.Millisecond; at <= horizon; at += 100 * time.Millisecond {
			man.Schedule(at, "sync", func(now time.Duration) {
				cl.SyncTick(now)
				for k := range cl.modules {
					if wcl := cl.Board().Get(k).WCL; wcl > 0 {
						published = true
					}
				}
			})
		}
		man.Run()
		for _, m := range cl.modules {
			if (m.wclWin != nil) != reads || (cap(m.wclScratch) > 0) != reads {
				t.Fatalf("%s: module %d keeps a WCL window (%t) and scratch (%d), want %t", name, m.idx, m.wclWin != nil, cap(m.wclScratch), reads)
			}
		}
		if published != reads {
			t.Fatalf("%s: a positive WCL was published: %t, want %t", name, published, reads)
		}
	}
}
