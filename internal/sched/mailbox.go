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
//     fan-out and merge hops). Each goes straight into its destination lane
//     in mailbox order: after everything the destination queued before the
//     window's barrier, its own events of that window included, and before
//     anything queued after it; among the window's posts at one instant, in
//     (source module, send sequence) order. The key that says so is the
//     lane queue's (lanequeue.go); a peer group's posts take the same keyed
//     push at the barrier.
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

// intent is one deferred request termination, decided by module mod. The
// module index sits in the padding after drop: an intent is 24 bytes.
type intent struct {
	at  time.Duration
	req *Request
	// drop is true for a drop at the module, false for a sink completion.
	drop bool
	mod  int32
}

// laneBridge carries the cluster's per-lane deferred state while running on
// a lane-aware executor.
type laneBridge struct {
	cl *Cluster
	// intents holds every module's terminations of the current window in
	// decision order, so each module's own are in its decision order too.
	intents []intent
}

// newLaneBridge returns the bridge of an n-module cluster, with room for one
// termination a module before its list first grows.
func newLaneBridge(cl *Cluster, n int) *laneBridge {
	return &laneBridge{cl: cl, intents: make([]intent, 0, n)}
}

// add defers one termination decided by module k and marks it on the
// request (see Request.pendMod). Callers add only what k does not see yet.
func (b *laneBridge) add(k int, req *Request, at time.Duration, drop bool) {
	b.intents = append(b.intents, intent{at: at, req: req, drop: drop, mod: int32(k)})
	if req.pendMod == 0 {
		req.pendMod = int32(k) + 1
	} else {
		req.pendMore = true
	}
}

// sees reports whether module k holds a pending termination for req: the
// deciding module must see its own drops immediately, while other modules
// learn of them at the next barrier (via the committed Request flags). Only
// when a second module has marked the request too does it look through the
// pending intents for one of k's.
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
	for i := range b.intents {
		if b.intents[i].req == req && b.intents[i].mod == int32(k) {
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

// encodeIntents appends the pending intents in their wire shape to out, in
// decision order. The intents and their marks stay as they are: commit
// applies and clears them once the peers' intents are in.
func (b *laneBridge) encodeIntents(out []WireIntent) []WireIntent {
	for _, it := range b.intents {
		out = append(out, WireIntent{At: it.at, Mod: it.mod, Req: it.req.ID, Drop: it.drop})
	}
	return out
}

// commit applies every deferred termination in (virtual time, module,
// decision order) order: this replica's own intents, then the peer groups'
// wire intents from a barrier exchange's reply all (nil on a single group;
// this group's own entry is skipped, its intents are already in), sorted in
// place. Equal (time, module) runs come from one module and so from one
// group, in its decision order, which the stable sort keeps, so every replica
// commits in the total order a single group gives. Committing sets the shared
// Request flags (making the termination visible to every lane from the next
// window on), counts the drop against the deciding module, and fires the
// host callback. The first intent for a request in commit order wins; later
// ones — a second branch of a DAG deciding to drop the same request inside
// one window — are no-ops, exactly as under sequential execution.
func (b *laneBridge) commit(all []BarrierMsg) error {
	merged := b.intents
	for _, it := range merged {
		it.req.pendMod, it.req.pendMore = 0, false
	}
	for i := range all {
		if int(all[i].Group) == b.cl.topo.Group {
			continue
		}
		for _, wi := range all[i].Intents {
			req := b.cl.resolve(wi.Req)
			if req == nil {
				b.intents = merged[:0]
				return fmt.Errorf("sched: intent for unknown request %d from group %d", wi.Req, all[i].Group)
			}
			merged = append(merged, intent{at: wi.At, req: req, drop: wi.Drop, mod: wi.Mod})
		}
	}
	if len(merged) == 0 {
		return nil // most barriers commit nothing: skip the sort call
	}
	slices.SortStableFunc(merged, func(a, b intent) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.mod, b.mod)
	})
	for _, it := range merged {
		if it.drop {
			b.cl.commitDrop(it.req, int(it.mod), it.at)
		} else {
			b.cl.commitComplete(it.req, it.at)
		}
	}
	clear(merged) // a live server's list outlasts its requests: keep none
	b.intents = merged[:0]
	return nil
}
