package sched

import (
	"time"
)

// Request is one client request traversing the pipeline. For DAG pipelines a
// single Request is shared by all branch copies; per-branch state lives in
// the queue entries.
type Request struct {
	ID       uint64
	Send     time.Duration // t_s
	Deadline time.Duration // Send + SLO

	// Accumulated GPU time charged to this request (d(b)/b per batch).
	GPU time.Duration

	// Aggregate latency decomposition across all modules the request
	// executed in (Fig. 12b).
	SumQ, SumW, SumD time.Duration

	// Drop state. A request dropped in any branch is globally dropped.
	Dropped bool
	// pendMod marks a lane-mode termination decided and not yet committed:
	// module pendMod-1 decided it (0: none), and pendMore is set once a
	// second module decided one too (laneBridge.add). The barrier clears
	// both as it commits (laneBridge.commit). They sit in Dropped's padding,
	// so a Request does not grow; module indices are int32 on the wire too.
	pendMore   bool
	pendMod    int32
	DropModule int
	DropAt     time.Duration

	// Completion state.
	Finished bool
	DoneAt   time.Duration

	// Payload is opaque host state carried alongside the request (the live
	// server stores the client's response channel here). The core never
	// touches it.
	Payload any

	// ExpectedMerge is how many branch copies the merge module must collect
	// (1 for exclusive fan-out, fan-out degree otherwise). Zero for chains.
	ExpectedMerge int
	// mergeArrived counts branch copies that reached the merge module.
	mergeArrived int
	// mergeMaxArrive tracks the latest branch arrival (merge semantics:
	// end-to-end latency is the max across branches, §4.2).
	mergeMaxArrive time.Duration
}

// charge accumulates a batch execution's per-request accounting. Every
// executor runs the core on one thread, so these are plain adds, applied at
// once; the totals are integer sums, so the order of the adds cannot change
// them.
func (r *Request) charge(gpu, q, w, d time.Duration) {
	r.GPU += gpu
	r.SumQ += q
	r.SumW += w
	r.SumD += d
}

// chargeRec is one charge of this lane group's modules on its way to the
// peer replicas at the next barrier (multi-group topologies only).
type chargeRec struct {
	req          *Request
	gpu, q, w, d time.Duration
}

// resetMerge arms the merge bookkeeping for the next fan-out region: n
// branch copies must arrive before the merge module proceeds.
func (r *Request) resetMerge(n int) {
	r.ExpectedMerge = n
	r.mergeArrived = 0
	r.mergeMaxArrive = 0
}

// entry is a request instance queued at a specific module (a branch copy in
// DAG pipelines).
type entry struct {
	req *Request
	// arrive is t_r at this module.
	arrive time.Duration
}
