package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// This file implements the deterministic ordered mailboxes of the sharded
// execution path. Two kinds of cross-module traffic flow through them:
//
//   - posts: events one lane schedules on another (batch hand-off, DAG
//     fan-out and merge hops). They are buffered in the sending lane's
//     outbox and delivered at the window barrier in (virtual time, source
//     module, send sequence) order — a merge of the outboxes, each already
//     in time order (ShardedExecutor.flushOutboxes).
//   - intents: request terminations (drops and completions) decided inside a
//     window. They are buffered per lane and committed at the barrier sorted
//     by (virtual time, module, decision sequence), so the globally visible
//     Request state — and the order of host OnDrop/OnDone callbacks — is a
//     pure function of the workload, independent of shard count.
//
// The sequential executor path (a ShardedExecutor with one shard) runs the
// exact same machinery single-threaded, which is what makes "sharded ≡
// sequential" hold by construction and lets the differential harness verify
// it empirically.

// post is one cross-lane event in flight.
type post struct {
	src, dst int
	at       time.Duration
	ev       laneEvent
}

// sortPosts puts a multi-group barrier's staged posts — this group's own,
// already merged, followed by each peer's as decoded — into mailbox order,
// (virtual time, source module). Equal keys come from one source lane and so
// from one group, in send order, which the stable sort keeps: the full key is
// (time, module, sequence). slices.SortStableFunc is in-place and
// reflection-free, so the barrier allocates nothing in steady state. The
// single-group barrier merges (flushOutboxes) and sorts only a stray outbox.
func sortPosts(posts []post) {
	slices.SortStableFunc(posts, func(a, b post) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.src, b.src)
	})
}

// laneScheduler is what a lane-aware executor offers the cluster beyond
// Executor: a barrier hook for intent commits and a fan-out over its lanes.
// *ShardedExecutor implements it; the global-queue executors (TimerExecutor,
// ManualExecutor) do not, and on them the cluster commits terminations
// immediately.
type laneScheduler interface {
	Executor
	// setBarrierHook registers the cluster's barrier commit; a non-nil
	// error aborts the run (multi-group transport failures).
	setBarrierHook(func() error)
	// parallelLanes fans a lane-local function out over all lanes from
	// control context.
	parallelLanes(fn func(lane int))
	// Lanes returns the executor's lane count (must equal the module count).
	Lanes() int
}

// intent is one deferred request termination.
type intent struct {
	at  time.Duration
	req *Request
	// drop is true for a drop at the module, false for a sink completion.
	drop bool
}

// laneBridge carries the cluster's per-lane deferred state while running on
// a lane-aware executor.
type laneBridge struct {
	cl *Cluster
	// intents[k] holds module k's terminations of the current window, in
	// decision order.
	intents [][]intent
	// retired[k] is module k's lane-local view of requests it terminated in
	// the current window: the deciding lane must see its own drops
	// immediately, while other lanes learn of them at the next barrier (via
	// the committed Request flags). Cleared at every barrier.
	retired []map[*Request]struct{}
	// scratch reuses the merged commit buffer across barriers.
	scratch []mergedIntent
}

// mergedIntent tags an intent with its sort key (module, then per-lane
// decision order preserved by the stable sort).
type mergedIntent struct {
	intent
	mod int
}

func newLaneBridge(cl *Cluster, n int) *laneBridge {
	b := &laneBridge{cl: cl, intents: make([][]intent, n), retired: make([]map[*Request]struct{}, n)}
	for k := range b.retired {
		b.retired[k] = make(map[*Request]struct{})
	}
	return b
}

// add defers one termination decided by module k.
func (b *laneBridge) add(k int, req *Request, at time.Duration, drop bool) {
	b.intents[k] = append(b.intents[k], intent{at: at, req: req, drop: drop})
	b.retired[k][req] = struct{}{}
}

// sees reports whether module k already considers req terminated: globally
// committed, or terminated by k itself inside the current window.
func (b *laneBridge) sees(k int, req *Request) bool {
	_, ok := b.retired[k][req]
	return ok
}

// seesAny reports whether ANY module holds a pending termination for req.
// Multi-group control context uses it: under a single group, control-context
// terminations commit immediately and are visible across modules within the
// same control event; deferred multi-group terminations must reproduce that
// visibility, so the whole pending set counts.
func (b *laneBridge) seesAny(req *Request) bool {
	for k := range b.retired {
		if _, ok := b.retired[k][req]; ok {
			return true
		}
	}
	return false
}

// encodeIntents drains the pending intents into their wire shape, appending
// to out, gathered in (module, decision order) — the same order commit's
// merge would have gathered them. The retired maps stay populated until
// commitWire applies the merged set (the deciding module must keep seeing
// its own intents until the commit makes them globally visible).
func (b *laneBridge) encodeIntents(out []WireIntent) []WireIntent {
	for k, list := range b.intents {
		for _, it := range list {
			out = append(out, WireIntent{At: it.at, Mod: int32(k), Req: it.req.ID, Drop: it.drop})
		}
		b.intents[k] = list[:0]
	}
	return out
}

// commitWire applies the all-gathered intents of every lane group in
// (virtual time, module, decision order) order — the identical total order
// a single group's commit produces, because equal (time, module) runs come
// from exactly one group and the concatenation preserves their decision
// order. resolve maps wire request IDs onto this group's replica slab.
func (b *laneBridge) commitWire(all []BarrierMsg, resolve func(uint64) *Request) error {
	merged := b.scratch[:0]
	for i := range all {
		for _, wi := range all[i].Intents {
			req := resolve(wi.Req)
			if req == nil {
				b.scratch = merged[:0]
				return fmt.Errorf("sched: intent for unknown request %d from group %d", wi.Req, all[i].Group)
			}
			merged = append(merged, mergedIntent{intent: intent{at: wi.At, req: req, drop: wi.Drop}, mod: int(wi.Mod)})
		}
	}
	slices.SortStableFunc(merged, func(a, b mergedIntent) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.mod, b.mod)
	})
	for _, m := range merged {
		if m.drop {
			b.cl.commitDrop(m.req, m.mod, m.at)
		} else {
			b.cl.commitComplete(m.req, m.at)
		}
	}
	b.scratch = merged[:0]
	for k := range b.retired {
		clear(b.retired[k])
	}
	return nil
}

// commit applies every deferred termination in (virtual time, module,
// decision order) order. Committing sets the shared Request flags (making
// the termination visible to every lane from the next window on), counts the
// drop against the deciding module, and fires the host callback. The first
// intent for a request in commit order wins; later ones — a second branch of
// a DAG deciding to drop the same request inside one window — are no-ops,
// exactly as under sequential execution.
func (b *laneBridge) commit() {
	merged := b.scratch[:0]
	for k, list := range b.intents {
		for _, it := range list {
			merged = append(merged, mergedIntent{intent: it, mod: k})
		}
		b.intents[k] = list[:0]
	}
	if len(merged) == 0 {
		b.scratch = merged
		return
	}
	slices.SortStableFunc(merged, func(a, b mergedIntent) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.mod, b.mod)
	})
	for _, m := range merged {
		if m.drop {
			b.cl.commitDrop(m.req, m.mod, m.at)
		} else {
			b.cl.commitComplete(m.req, m.at)
		}
	}
	b.scratch = merged[:0]
	for k := range b.retired {
		// clear keeps the map's storage, so a steady-state barrier reuses it
		// instead of re-allocating a map per module per window.
		clear(b.retired[k])
	}
}
