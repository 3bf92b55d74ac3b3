package sched

import (
	"fmt"
	"sync"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
)

// This file defines the lane-group boundary of the sharded engine: the
// Topology that places per-module event lanes into lane groups, the
// wire-shaped payloads that cross the boundary, and the Transport interface
// the exchanges flow through.
//
// The distribution model is a replicated cluster in lockstep. Every lane
// group process builds the FULL cluster — all modules, workers, probes and
// the complete request slab — but only executes the lanes it owns
// (module k belongs to group k % Groups). Control-lane events (sync ticks,
// scaling ticks, injected failures) are replicated: every group schedules
// and fires them identically, with owner-only guards inside. Five exchange
// kinds keep the replicas bit-identical:
//
//   - Barrier: the barrier hook's combined payload — cross-group mailbox
//     posts, deferred termination intents, and batched per-request charges —
//     all-gathered so every group applies the identical merged commit. Every
//     iteration of the executor's loop ends in one: after the window, or
//     after each control event (whose message has no posts: control context
//     schedules straight into the lanes). The message also carries the sender's
//     control-lane head and owned-lane low watermark as of the moment it was
//     built, so the same round trip verifies control-lane lockstep —
//     diverging control queues abort the run, never silently drift — and
//     lets every replica derive the next global low watermark.
//   - Step: the low-watermark all-reduce on its own. It opens the run (no
//     barrier has happened yet) and backs any iteration that made no barrier
//     exchange; a steady-state iteration makes none.
//   - Board: sync-tick board rows all-gathered between the owner-local
//     measure phase and the replicated decide phase.
//   - Scale: scaling-tick demand rows, all-gathered likewise. Each group
//     applies only its own modules' demands, so no replica reads a peer's
//     rows.
//   - Finish: end-of-run per-module reports (probes, peak workers, lane
//     event counts) so any group can assemble the full result.
//
// Why the watermark can ride on the barrier: between the moment a group
// builds its BarrierMsg and the next loop head no lane runs, so a lane's
// head can only be lowered by (a) the barrier's own posts — the locally
// staged ones are folded into the sender's reported head, the cross-group
// ones are in the gathered reply every replica sees — or (b) a
// control-context schedule made while the merged commit is applied (host
// OnDone/OnDrop callbacks), which every replica executes identically and
// records before the ownership filter. The global watermark is the minimum
// over the reported heads, the gathered posts and (b), taken from the last
// exchange before the loop head. TestLaneGroupWatermark runs the Step
// exchange beside it at every iteration of the differential corpus and
// requires the two to agree.
//
// Merges are deterministic by construction: per-group contributions are
// gathered in (local module order, decision/send order) and concatenated in
// group order; items with equal sort keys always originate from a single
// module — hence a single group — so the stable sorts reproduce the exact
// single-process order.
//
// Why a single group skips the Transport. It commits through the same
// barrier hook and the same merge as a multi-group replica — its own intents,
// with no peer's to add — so the wire path would buy it nothing. Sending it
// through anyway (a one-endpoint transport that hands each message straight
// back, NewShardedExecutorTopo at every group count) held every golden but
// cost the per-barrier wire encode, the heads and watermark bookkeeping and
// the peer merge. Measured on a 2-core x86-64 Xeon: TestAllocsWholeOps
// allocations an op 438 → 500 (ShardedDASequential) and 1 331 → 1 405
// (SweepGrid), and over 6 alternating runs of 5 ops each, median wall time
// +7 % on BenchmarkShardedDASequential and +12 % on BenchmarkSweepGrid.
//
// memTransport (below) is the in-process implementation: tests and the
// benchmark run a multi-group simulation in one process by handing each
// group's simgpu.Config.Remote one of NewMemTransports' endpoints. The
// cross-host implementation — a hand-written binary codec over framed TCP —
// lives in internal/dist, built on its framing/handshake discipline.

// Topology places the per-module event lanes into lane groups. Ownership is
// derived, not configured: lane k belongs to group k % Groups (round-robin,
// so contiguous pipeline stages land in different groups — the adversarial
// placement for the determinism harness). The zero value is the
// single-group topology.
type Topology struct {
	// Groups is the lane-group count; 0 and 1 both mean single-group.
	Groups int
	// Group is this process's group index in [0, Groups).
	Group int
}

// single reports whether the topology degenerates to one group.
func (t Topology) single() bool { return t.Groups <= 1 }

// owns reports whether this group executes lane k.
func (t Topology) owns(lane int) bool { return t.Groups <= 1 || lane%t.Groups == t.Group }

// Owns is the exported owns: hosts assembling per-module results ask it
// which modules this group holds authoritative state for.
func (t Topology) Owns(lane int) bool { return t.owns(lane) }

func (t Topology) validate() error {
	if t.Groups < 0 {
		return fmt.Errorf("sched: negative lane-group count %d", t.Groups)
	}
	if t.Groups > 1 && (t.Group < 0 || t.Group >= t.Groups) {
		return fmt.Errorf("sched: lane group %d out of range [0,%d)", t.Group, t.Groups)
	}
	return nil
}

// WirePost is one cross-group mailbox post. Only the typed by-value receive
// op crosses the boundary — request arrivals and DAG hops; closures must
// not (the executor aborts loudly if one reaches the wire). Requests travel
// by ID and are resolved against the receiving group's replica slab.
type WirePost struct {
	At  time.Duration
	Src int32
	Dst int32
	Req uint64
}

// WireIntent is one deferred request termination (drop or sink completion)
// decided inside the current window or control event.
type WireIntent struct {
	At   time.Duration
	Mod  int32
	Req  uint64
	Drop bool
}

// WireCharge is one batched per-request accounting record. Charges are
// integer-duration sums, so the merged apply order is immaterial; they are
// exchanged so every replica holds complete Request sums before intents
// commit (host OnDone callbacks observe complete decompositions).
type WireCharge struct {
	Mod    int32
	Req    uint64
	GPU, Q time.Duration
	W, D   time.Duration
}

// WireMergeReset arms the DAG merge bookkeeping on every replica. Only the
// fan-out module's owner executes forward (and thus resetMerge), but the
// region's merge module — possibly owned by another group — reads the
// expected branch count. Exchanged at the barrier following the fan-out,
// which is always strictly before any branch copy reaches the merge module
// (arrivals land at least one window later), so replicas arm in time.
type WireMergeReset struct {
	At       time.Duration
	Mod      int32 // the fan-out module
	Req      uint64
	Expected int32
}

// StepMsg is one group's contribution to the stand-alone low-watermark
// exchange. CtrlAt/CtrlOK must be identical across groups (the control lane
// is replicated); the executor verifies this and aborts on divergence.
type StepMsg struct {
	Group  int32
	CtrlAt time.Duration
	CtrlOK bool
	LaneAt time.Duration
	LaneOK bool
}

// BarrierMsg is one group's barrier-hook payload: cross-group posts,
// termination intents, and charge records, each in deterministic local
// order. After a control event Posts is empty; an all-empty exchange (an
// empty-drain round) is valid and common.
//
// CtrlAt/CtrlOK and LaneAt/LaneOK are the StepMsg fields as of the moment
// the message was built: the replicated control lane's head (identical on
// every group, or the run aborts) and the earliest event the sender holds,
// its locally staged posts included.
type BarrierMsg struct {
	Group   int32
	CtrlAt  time.Duration
	CtrlOK  bool
	LaneAt  time.Duration
	LaneOK  bool
	Posts   []WirePost
	Intents []WireIntent
	Charges []WireCharge
	Merges  []WireMergeReset
}

// WireBoardRow carries one owned module's published state to the replicas.
type WireBoardRow struct {
	Mod   int32
	State core.ModuleState
}

// BoardMsg is one group's sync-tick board contribution.
type BoardMsg struct {
	Group int32
	Rows  []WireBoardRow
}

// WireScaleRow carries one owned module's scaling demand.
type WireScaleRow struct {
	Mod     int32
	Desired int32
}

// ScaleMsg is one group's scaling-tick contribution.
type ScaleMsg struct {
	Group int32
	Rows  []WireScaleRow
}

// ModuleReport is one owned module's end-of-run report: everything the
// result assembly needs that lives only on the owner (probes, peak
// workers). Replicated state — request outcomes, drop counters, policy
// internals — needs no wire: it is bit-identical in every group.
type ModuleReport struct {
	Mod         int32
	Peak        int
	QueueDelay  *metrics.Series
	Load        *metrics.Series
	Mode        *metrics.Series
	Budget      *metrics.Series
	Remain      *metrics.Series
	WaitSamples []float64
}

// FinishMsg is one group's end-of-run contribution. LaneFired sums the
// group's owned-lane event counts; the global event total is the replicated
// control-lane count plus the sum of LaneFired over groups.
type FinishMsg struct {
	Group     int32
	LaneFired uint64
	Reports   []ModuleReport
}

// Transport carries the lane-group exchanges. Every method is a collective:
// all groups call it with their own contribution in lockstep, and every
// group receives the same merged slice ordered by group index. An error
// from any method must abort the whole run on every group — the
// implementations propagate failure rather than let replicas diverge
// silently.
//
// Buffer ownership. The slices inside a message passed in stay the
// caller's; the caller leaves them unmodified until its next exchange has
// returned, so an implementation may pass them to peers by reference
// (memTransport does: a peer is done with round n's slices before it enters
// round n+1) or encode them before returning (internal/dist does). The
// slices returned by Step, Barrier, Board and Scale are valid only until the
// caller's next exchange — an implementation may decode into per-session
// buffers — so the caller copies out what it keeps (the state board's
// Publish copies a board row's samples). Finish reports are retained by the
// caller and must be freshly allocated.
//
// The in-process implementation is memTransport; internal/dist provides the
// cross-host implementation over its framed, handshake-checked TCP protocol.
type Transport interface {
	Step(StepMsg) ([]StepMsg, error)
	Barrier(BarrierMsg) ([]BarrierMsg, error)
	Board(BoardMsg) ([]BoardMsg, error)
	Scale(ScaleMsg) ([]ScaleMsg, error)
	Finish(FinishMsg) ([]FinishMsg, error)
	// Abort poisons the transport: every blocked or future exchange on any
	// group returns the error. Called when a group fails locally so its
	// peers stop instead of hanging at the next rendezvous.
	Abort(error)
}

// exchangeKind tags a rendezvous so lockstep violations (one group at a
// Step while another is at a Barrier) are detected, not deadlocked on.
type exchangeKind uint8

const (
	kindStep exchangeKind = iota + 1
	kindBarrier
	kindBoard
	kindScale
	kindFinish
)

func (k exchangeKind) String() string {
	switch k {
	case kindStep:
		return "step"
	case kindBarrier:
		return "barrier"
	case kindBoard:
		return "board"
	case kindScale:
		return "scale"
	case kindFinish:
		return "finish"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// memHub is the in-process rendezvous backing memTransport: a reusable
// all-gather barrier over a mutex and condition variable. The first arrival
// of a round opens the round's merged slice, every group writes its message
// into its own slot, and the last arrival wakes the others; all of them
// return that one slice, ordered by group index.
type memHub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	round   uint64
	kind    exchangeKind
	err     error

	steps    memSlots[StepMsg]
	barriers memSlots[BarrierMsg]
	boards   memSlots[BoardMsg]
	scales   memSlots[ScaleMsg]
	finishes memSlots[FinishMsg]
}

func newMemHub(n int) *memHub {
	h := &memHub{n: n}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// memChunkRounds is how many rounds of one exchange kind share a chunk.
const memChunkRounds = 64

// memSlots hands out one exchange kind's merged slices. Each round's slice is
// cut from a chunk holding memChunkRounds rounds and is never written again
// once its round has closed: a reply stays intact however long its caller
// keeps it, and the fabric allocates once per memChunkRounds rounds of a
// kind rather than boxing every message and copying every reply.
type memSlots[T any] struct {
	cur  []T // the open round's merged slice
	free []T // the unused rest of the current chunk
}

func (s *memSlots[T]) open(n int) {
	if len(s.free) < n {
		s.free = make([]T, n*memChunkRounds)
	}
	s.cur, s.free = s.free[:n:n], s.free[n:]
}

// gather deposits t's message in slots for one round of kind and blocks until
// every group has arrived, returning the merged contributions in group order.
// Rounds of different kinds cannot interleave: a group arriving with another
// kind than the open round's is a lockstep divergence and poisons the hub.
func gather[T any](t *memTransport, kind exchangeKind, slots *memSlots[T], msg T) ([]T, error) {
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	if h.arrived == 0 {
		h.kind = kind
		slots.open(h.n)
	} else if h.kind != kind {
		err := fmt.Errorf("sched: lane-group lockstep divergence: group %d exchanging %v while round is %v", t.group, kind, h.kind)
		h.failLocked(err)
		return nil, err
	}
	out := slots.cur // a peer may open the next round before this one wakes
	out[t.group] = msg
	myRound := h.round
	h.arrived++
	if h.arrived == h.n {
		h.arrived = 0
		h.round++
		h.cond.Broadcast()
		return out, nil
	}
	for h.round == myRound && h.err == nil {
		h.cond.Wait()
	}
	if h.err != nil {
		return nil, h.err
	}
	return out, nil
}

func (h *memHub) abort(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failLocked(err)
}

func (h *memHub) failLocked(err error) {
	if h.err == nil && err != nil {
		h.err = err
		h.cond.Broadcast()
	}
}

// memTransport is one group's endpoint on an in-process hub. Each group runs
// its replica on its own goroutine with simgpu.Config.Remote set to its
// endpoint. Messages pass by value and their slices by reference, so a
// steady-state round costs no allocation beyond its share of a memSlots
// chunk (TestAllocsMemExchange). The single-group fast path never reaches a
// Transport at all: exchanges are skipped when Topology.single().
type memTransport struct {
	hub   *memHub
	group int
}

// NewMemTransports builds an in-process lane-group fabric: one connected
// Transport endpoint per group.
func NewMemTransports(groups int) []Transport {
	if groups < 1 {
		panic(fmt.Sprintf("sched: NewMemTransports needs >= 1 groups, got %d", groups))
	}
	hub := newMemHub(groups)
	ts := make([]Transport, groups)
	for g := range ts {
		ts[g] = &memTransport{hub: hub, group: g}
	}
	return ts
}

func (t *memTransport) Step(m StepMsg) ([]StepMsg, error) {
	return gather(t, kindStep, &t.hub.steps, m)
}

func (t *memTransport) Barrier(m BarrierMsg) ([]BarrierMsg, error) {
	return gather(t, kindBarrier, &t.hub.barriers, m)
}

func (t *memTransport) Board(m BoardMsg) ([]BoardMsg, error) {
	return gather(t, kindBoard, &t.hub.boards, m)
}

func (t *memTransport) Scale(m ScaleMsg) ([]ScaleMsg, error) {
	return gather(t, kindScale, &t.hub.scales, m)
}

func (t *memTransport) Finish(m FinishMsg) ([]FinishMsg, error) {
	return gather(t, kindFinish, &t.hub.finishes, m)
}

func (t *memTransport) Abort(err error) { t.hub.abort(err) }
