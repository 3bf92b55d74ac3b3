package sched

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pard/internal/pipeline"
)

// commitRuleLog runs the commit-rule scenario on lane group g of groups (a
// single-group executor when groups is 1) and returns what the host saw, in
// order: every OnDrop as "drop id@module", and the markers the control event
// logs around its steps. One control event at crashAt crashes module 0's
// worker, calls ControlFlush, then crashes module 1's worker; both workers
// hold queued requests. Module 0 belongs to group 0 and module 1 to group 1,
// so on two groups each crash is decided by a different replica.
func commitRuleLog(t *testing.T, groups, g int, tr Transport) ([]string, error) {
	const (
		n       = 600
		crashAt = 150 * time.Millisecond
	)
	spec := pipeline.LV()
	var x *LaneExecutor
	if groups == 1 {
		x = NewLaneExecutor(spec.N(), time.Millisecond)
	} else {
		var err error
		if x, err = NewLaneExecutorTopo(spec.N(), time.Millisecond, Topology{Groups: groups, Group: g}, tr); err != nil {
			return nil, err
		}
	}
	reqs := make([]Request, n)
	var log []string
	cl, err := New(mustPlan(t, spec, []int{4, 1, 1, 1, 1}), Config{
		PolicyName: "naive", Seed: 1, NetDelay: time.Millisecond,
		OnDrop: func(req *Request, module int, now time.Duration) {
			log = append(log, fmt.Sprintf("drop %d@%d", req.ID, module))
		},
		Resolve: func(id uint64) *Request { return &reqs[id] },
	}, x)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		reqs[i] = Request{ID: uint64(i), Send: time.Duration(i) * 50 * time.Microsecond, Deadline: time.Hour}
		cl.Inject(&reqs[i], reqs[i].Send)
	}
	queued := func(k int) int {
		if !cl.owns(k) {
			return 1 // a peer's worker: its owner checks
		}
		ws := cl.modules[k].workers
		return ws[len(ws)-1].queue.Len() // the worker Crash kills
	}
	x.Schedule(crashAt, "crash", func(now time.Duration) {
		if queued(0) == 0 || queued(1) == 0 {
			t.Errorf("group %d/%d: modules 0 and 1 queue %d and %d requests at the crash, want some at both", g, groups, queued(0), queued(1))
		}
		log = append(log, "crash 0")
		cl.Crash(0, now, 1)
		log = append(log, "flush")
		cl.ControlFlush()
		log = append(log, "crash 1")
		cl.Crash(1, now, 1)
		log = append(log, "event end")
	})
	x.Run()
	return log, x.Err()
}

// TestControlCommitRule pins when and in what order a control event's
// terminations commit in the lane engine: not while the event runs, but when
// it ends — or, for those decided before it, when the host calls
// ControlFlush — and in the same order at one lane group and at two. A crash
// that drops a worker's queued requests is the control event.
func TestControlCommitRule(t *testing.T) {
	one, err := commitRuleLog(t, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The host's markers bracket the drops: module 0's between "flush" and
	// "crash 1", module 1's after "event end".
	at := map[string]int{}
	for i, s := range one {
		at[s] = i
	}
	mark := func(s string) int {
		i, ok := at[s]
		if !ok {
			t.Fatalf("marker %q missing from %v", s, one)
		}
		return i
	}
	c0, fl, c1, end := mark("crash 0"), mark("flush"), mark("crash 1"), mark("event end")
	if c0 != 0 || fl != 1 {
		t.Fatalf("drops reached OnDrop before the event's ControlFlush: %v", one[:fl+1])
	}
	if c1 == fl+1 || end != c1+1 || end == len(one)-1 {
		t.Fatalf("log %v: want module 0's drops at the flush and module 1's after the event, none inline", one)
	}
	for i, s := range one {
		var id, mod int
		if _, err := fmt.Sscanf(s, "drop %d@%d", &id, &mod); err != nil {
			continue
		}
		want := 0
		if i > c1 {
			want = 1
		}
		if mod != want {
			t.Fatalf("entry %d %q: a drop at module %d where module %d's belong", i, s, mod, want)
		}
	}

	const groups = 2
	trs := NewMemTransports(groups)
	logs := make([][]string, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			logs[g], errs[g] = commitRuleLog(t, groups, g, trs[g])
		}(g)
	}
	wg.Wait()
	for g := 0; g < groups; g++ {
		if errs[g] != nil {
			t.Fatalf("group %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(logs[g], one) {
			t.Fatalf("group %d of %d logged\n%v\none group logged\n%v", g, groups, logs[g], one)
		}
	}
}
