package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// This file implements the deterministic ordered mailboxes of the lane
// engine. Two kinds of cross-module traffic flow through them:
//
//   - posts: events one lane schedules on another (batch hand-off, DAG
//     fan-out and merge hops). They are buffered in the sending lane's
//     outbox and delivered at the window barrier in (virtual time, source
//     module, send sequence) order — a merge of the outboxes, each already
//     in time order (LaneExecutor.flushOutboxes).
//   - intents: request terminations (drops and completions) decided inside a
//     window. They are buffered per lane and committed at the barrier sorted
//     by (virtual time, module, decision sequence), so the globally visible
//     Request state — and the order of host OnDrop/OnDone callbacks — is a
//     pure function of the workload, independent of the order the window's
//     lanes ran in.
//
// Intents are the only way a lane-mode termination commits, wherever it was
// decided — in a window or in a control event — and at any lane-group count:
// the executor runs the cluster's barrier hook after every window and after
// every control event, and the hook commits one merge of this replica's own
// intents with the peers' wire intents (none on a single group).

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
	// decision order; pending counts them over every module.
	intents [][]intent
	pending int
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
	return &laneBridge{cl: cl, intents: make([][]intent, n)}
}

// add defers one termination decided by module k and marks it on the
// request (see Request.pendMod). Callers add only what k does not see yet.
func (b *laneBridge) add(k int, req *Request, at time.Duration, drop bool) {
	b.intents[k] = append(b.intents[k], intent{at: at, req: req, drop: drop})
	b.pending++
	if req.pendMod == 0 {
		req.pendMod = int32(k) + 1
	} else {
		req.pendMore = true
	}
}

// sees reports whether module k holds a pending termination for req: the
// deciding module must see its own drops immediately, while other modules
// learn of them at the next barrier (via the committed Request flags). Only
// when a second module has marked the request too does it look through k's
// own intents.
func (b *laneBridge) sees(k int, req *Request) bool {
	switch req.pendMod {
	case 0:
		return false
	case int32(k) + 1:
		return true
	}
	if !req.pendMore {
		return false
	}
	for i := range b.intents[k] {
		if b.intents[k][i].req == req {
			return true
		}
	}
	return false
}

// seesAny reports whether ANY module holds a pending termination for req.
// Control context uses it: a control event's terminations commit together
// when the event ends, yet a termination decided at one module must be
// visible to every other module within the same event (a scale-induced drop
// at one module seen by a parallel DAG branch at another), so the whole
// pending set counts.
func (b *laneBridge) seesAny(req *Request) bool { return req.pendMod != 0 }

// encodeIntents appends the pending intents in their wire shape to out,
// gathered in (module, decision order) — the order commit gathers them. The
// intents and their marks stay as they are: commit applies and clears them
// once the peers' intents are in.
func (b *laneBridge) encodeIntents(out []WireIntent) []WireIntent {
	for k, list := range b.intents {
		for _, it := range list {
			out = append(out, WireIntent{At: it.at, Mod: int32(k), Req: it.req.ID, Drop: it.drop})
		}
	}
	return out
}

// commit applies every deferred termination in (virtual time, module,
// decision order) order: this replica's own intents, then the peer groups'
// wire intents from a barrier exchange's reply all (nil on a single group;
// this group's own entry is skipped, its intents are already in). Equal
// (time, module) runs come from one module and so from one group, whose
// decision order the concatenation keeps, so the stable sort gives every
// replica the total order a single group gives. Committing sets the shared
// Request flags (making the termination visible to every lane from the next
// window on), counts the drop against the deciding module, and fires the
// host callback. The first intent for a request in commit order wins; later
// ones — a second branch of a DAG deciding to drop the same request inside
// one window — are no-ops, exactly as under sequential execution.
func (b *laneBridge) commit(all []BarrierMsg) error {
	merged := b.scratch[:0]
	if b.pending > 0 {
		for k, list := range b.intents {
			for _, it := range list {
				it.req.pendMod, it.req.pendMore = 0, false
				merged = append(merged, mergedIntent{intent: it, mod: k})
			}
			clear(list) // a live server's lists outlast its requests: keep none
			b.intents[k] = list[:0]
		}
		b.pending = 0
	}
	for i := range all {
		if int(all[i].Group) == b.cl.topo.Group {
			continue
		}
		for _, wi := range all[i].Intents {
			req := b.cl.resolve(wi.Req)
			if req == nil {
				b.scratch = merged[:0]
				return fmt.Errorf("sched: intent for unknown request %d from group %d", wi.Req, all[i].Group)
			}
			merged = append(merged, mergedIntent{intent: intent{at: wi.At, req: req, drop: wi.Drop}, mod: int(wi.Mod)})
		}
	}
	if len(merged) == 0 {
		b.scratch = merged
		return nil
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
	clear(merged)
	b.scratch = merged[:0]
	return nil
}
