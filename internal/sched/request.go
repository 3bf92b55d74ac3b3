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
	Dropped    bool
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

// charge accumulates a batch execution's per-request accounting. Callers
// guarantee serial context: the global-queue executors run the core
// single-threaded by contract, and lane mode routes charges through
// per-module buffers merged at the window barrier with every lane parked
// (see module.chargeRequest) — which is why these are plain adds, not the
// per-event atomics they once were. The totals are order-independent sums,
// so the result stays deterministic.
func (r *Request) charge(gpu, q, w, d time.Duration) {
	r.GPU += gpu
	r.SumQ += q
	r.SumW += w
	r.SumD += d
}

// chargeRec is one buffered charge awaiting the barrier merge (lane mode).
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
