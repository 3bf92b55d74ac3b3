package sched

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests pin the mailbox-ordering edge cases the lane-group merge
// proof rests on: equal virtual-time posts across groups, send-sequence
// stability through staging and sort, empty-drain barrier rounds, the
// lockstep-divergence guard, and the watermark carried by the barrier.

// wirePostAt builds a minimal wire-shaped post (typed receive, no closure).
func wirePostAt(at time.Duration, src, dst int, id uint64) post {
	return post{
		src: src,
		dst: dst,
		at:  at,
		ev:  laneEvent{op: opReceive, req: &Request{ID: id}},
	}
}

// TestSortPostsEqualTimeAcrossGroups replays the merge proof on a worst
// case: many posts sharing one virtual timestamp, sourced from modules
// owned by different lane groups, several per module so the sequence
// tiebreak matters. The single-process mailbox gathers posts in (source
// module order, send order) before the stable sort; a multi-group run
// gathers each group's owned modules the same way and concatenates the
// groups' contributions in group order. Because every (time, src) run
// lives in exactly one group, both gather orders must sort to the same
// delivery sequence.
func TestSortPostsEqualTimeAcrossGroups(t *testing.T) {
	const modules, groups = 5, 3
	at := 40 * time.Millisecond
	var id uint64

	// perModule[m] holds module m's posts in send order. Module 2 is
	// silent that window — gaps must not disturb the merge.
	perModule := make([][]post, modules)
	for m := 0; m < modules; m++ {
		if m == 2 {
			continue
		}
		for k := 0; k < 2+m%2; k++ {
			id++
			// Equal timestamps everywhere except one straggler, so the
			// primary key is exercised alongside the tiebreaks.
			postAt := at
			if m == 4 && k == 0 {
				postAt = at - time.Millisecond
			}
			perModule[m] = append(perModule[m], wirePostAt(postAt, m, (m+1)%modules, id))
		}
	}

	single := make([]post, 0)
	for m := 0; m < modules; m++ {
		single = append(single, perModule[m]...)
	}
	sortPosts(single)

	merged := make([]post, 0)
	for g := 0; g < groups; g++ {
		for m := 0; m < modules; m++ {
			if m%groups == g { // Topology ownership: module m belongs to group m % groups
				merged = append(merged, perModule[m]...)
			}
		}
	}
	sortPosts(merged)

	if len(single) != len(merged) {
		t.Fatalf("merged %d posts, single-process had %d", len(merged), len(single))
	}
	for i := range single {
		if single[i].ev.req.ID != merged[i].ev.req.ID {
			t.Fatalf("delivery order diverged at %d: single req %d, merged req %d",
				i, single[i].ev.req.ID, merged[i].ev.req.ID)
		}
	}
}

// TestSortPostsKeepSendOrder pins the receiving leg of the sequence
// tiebreak: posts sharing (At, Src) carry no explicit sequence number —
// their send order IS the order of the Posts slice — so the stable sort that
// follows staging must leave equal-key runs in wire order. (That the wire
// itself preserves slice order is internal/dist's
// TestWirePostRoundTripKeepsSendOrder, on the real codec.)
func TestSortPostsKeepSendOrder(t *testing.T) {
	wire := []WirePost{
		{At: 12 * time.Millisecond, Src: 1, Dst: 2, Req: 1},
		{At: 10 * time.Millisecond, Src: 1, Dst: 2, Req: 7},
		{At: 10 * time.Millisecond, Src: 1, Dst: 4, Req: 3}, // same (At, Src): order is the tiebreak
		{At: 10 * time.Millisecond, Src: 1, Dst: 2, Req: 9},
	}
	// Stage the way exchangeBarrier does, then sort.
	staged := make([]post, 0, len(wire))
	for _, wp := range wire {
		staged = append(staged, wirePostAt(wp.At, int(wp.Src), int(wp.Dst), wp.Req))
	}
	sortPosts(staged)
	wantIDs := []uint64{7, 3, 9, 1}
	for i, want := range wantIDs {
		if staged[i].ev.req.ID != want {
			t.Fatalf("post %d: req %d after sort, want %d", i, staged[i].ev.req.ID, want)
		}
	}
}

// TestEncodeWirePostRejectsClosures pins the boundary contract: only the
// typed receive op is wire-shaped; a closure event reaching the group
// boundary must fail loudly, never be silently dropped or half-encoded.
func TestEncodeWirePostRejectsClosures(t *testing.T) {
	good := wirePostAt(time.Millisecond, 0, 1, 42)
	wp, err := encodeWirePost(&good)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Req != 42 || wp.Src != 0 || wp.Dst != 1 || wp.At != time.Millisecond {
		t.Fatalf("encoded post mangled: %+v", wp)
	}

	bad := post{src: 0, dst: 1, at: time.Millisecond,
		ev: fnEvent(func(time.Duration) {})}
	if _, err := encodeWirePost(&bad); err == nil {
		t.Fatal("closure event crossed the lane-group boundary")
	} else if !strings.Contains(err.Error(), "cannot cross lane groups") {
		t.Fatalf("closure rejection error %q does not name the contract", err)
	}
}

// runGroupsConcurrently drives one exchange round per group on its own
// goroutine and returns each group's (merged, err) results.
func runGroupsConcurrently[T any](n int, call func(g int) ([]T, error)) ([][]T, []error) {
	outs := make([][]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = call(g)
		}(g)
	}
	wg.Wait()
	return outs, errs
}

// TestMemTransportEmptyDrainRounds pins that an all-empty barrier exchange
// (a control flush that drained nothing) is a valid round: every group gets
// the full merged slice in group order, and the fabric is reusable for
// further rounds of a different kind.
func TestMemTransportEmptyDrainRounds(t *testing.T) {
	const groups = 3
	trs := NewMemTransports(groups)

	for round := 0; round < 4; round++ {
		outs, errs := runGroupsConcurrently(groups, func(g int) ([]BarrierMsg, error) {
			return trs[g].Barrier(BarrierMsg{Group: int32(g)})
		})
		for g := 0; g < groups; g++ {
			if errs[g] != nil {
				t.Fatalf("round %d group %d: %v", round, g, errs[g])
			}
			if len(outs[g]) != groups {
				t.Fatalf("round %d group %d: merged %d messages, want %d", round, g, len(outs[g]), groups)
			}
			for i, m := range outs[g] {
				if int(m.Group) != i {
					t.Fatalf("round %d group %d: slot %d holds group %d (not group order)", round, g, i, m.Group)
				}
				if len(m.Posts) != 0 || len(m.Intents) != 0 || len(m.Charges) != 0 || len(m.Merges) != 0 {
					t.Fatalf("round %d: empty-drain round grew a payload: %+v", round, m)
				}
			}
		}
	}

	// The hub resets between rounds: a different exchange kind is fine next.
	outs, errs := runGroupsConcurrently(groups, func(g int) ([]StepMsg, error) {
		return trs[g].Step(StepMsg{Group: int32(g), LaneAt: time.Duration(g) * time.Millisecond, LaneOK: true})
	})
	for g := 0; g < groups; g++ {
		if errs[g] != nil {
			t.Fatalf("step after empty drains failed on group %d: %v", g, errs[g])
		}
		if len(outs[g]) != groups {
			t.Fatalf("step merged %d messages, want %d", len(outs[g]), groups)
		}
	}
}

// TestMemTransportRepliesOutliveRounds pins what the chunked reply slots
// promise beyond the Transport rule: a merged slice is never written again
// after its round, so a caller that keeps replies across rounds — and across
// chunk refills — still reads each round's own messages.
func TestMemTransportRepliesOutliveRounds(t *testing.T) {
	const groups, rounds = 2, 3 * memChunkRounds
	trs := NewMemTransports(groups)
	kept := make([][][]StepMsg, groups)
	_, errs := runGroupsConcurrently(groups, func(g int) ([]StepMsg, error) {
		for i := 0; i < rounds; i++ {
			all, err := trs[g].Step(StepMsg{Group: int32(g), LaneAt: time.Duration(i), LaneOK: true})
			if err != nil {
				return nil, err
			}
			kept[g] = append(kept[g], all)
		}
		return nil, nil
	})
	for g := 0; g < groups; g++ {
		if errs[g] != nil {
			t.Fatalf("group %d: %v", g, errs[g])
		}
		for i, all := range kept[g] {
			for peer, m := range all {
				if int(m.Group) != peer || m.LaneAt != time.Duration(i) {
					t.Fatalf("group %d kept round %d's reply; slot %d now holds group %d at %v", g, i, peer, m.Group, m.LaneAt)
				}
			}
		}
	}
}

// TestMemTransportLockstepDivergence pins the guard against replica drift:
// one group arriving at a Step while the round is a Barrier must abort both
// sides with a diagnosable error, not deadlock.
func TestMemTransportLockstepDivergence(t *testing.T) {
	trs := NewMemTransports(2)

	errCh := make(chan error, 1)
	go func() {
		_, err := trs[1].Barrier(BarrierMsg{Group: 1})
		errCh <- err
	}()

	// Wait for group 1 to open the round as a barrier, then diverge.
	hub := trs[0].(*memTransport).hub
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		arrived := hub.arrived
		hub.mu.Unlock()
		if arrived == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group 1 never opened the round")
		}
		time.Sleep(time.Millisecond)
	}

	_, err0 := trs[0].Step(StepMsg{Group: 0})
	err1 := <-errCh
	for g, err := range []error{err0, err1} {
		if err == nil {
			t.Fatalf("group %d did not observe the divergence", g)
		}
		if !strings.Contains(err.Error(), "lockstep divergence") {
			t.Fatalf("group %d error %q does not name the divergence", g, err)
		}
	}

	// The fabric stays poisoned: later exchanges fail instead of hanging.
	if _, err := trs[1].Step(StepMsg{Group: 1}); err == nil {
		t.Fatal("poisoned transport accepted a new exchange")
	}
}

// TestMemTransportAbortUnblocksPeers pins Abort's contract: a group failing
// locally must release peers already blocked at the rendezvous.
func TestMemTransportAbortUnblocksPeers(t *testing.T) {
	trs := NewMemTransports(2)
	boom := errors.New("boom")

	errCh := make(chan error, 1)
	go func() {
		_, err := trs[1].Board(BoardMsg{Group: 1})
		errCh <- err
	}()

	hub := trs[0].(*memTransport).hub
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		arrived := hub.arrived
		hub.mu.Unlock()
		if arrived == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group 1 never blocked at the rendezvous")
		}
		time.Sleep(time.Millisecond)
	}

	trs[0].Abort(boom)
	select {
	case err := <-errCh:
		if !errors.Is(err, boom) {
			t.Fatalf("blocked peer got %v, want the aborting error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Abort left a peer blocked at the rendezvous")
	}
	if _, err := trs[0].Finish(FinishMsg{}); !errors.Is(err, boom) {
		t.Fatalf("post-abort exchange got %v, want the aborting error", err)
	}
}

// TestExchangeKindNames keeps the divergence diagnostics readable: every
// kind prints a name, not a number.
func TestExchangeKindNames(t *testing.T) {
	for _, k := range []exchangeKind{kindStep, kindBarrier, kindBoard, kindScale, kindFinish} {
		if s := k.String(); strings.Contains(s, "kind(") {
			t.Fatalf("exchange kind %d has no name", k)
		}
	}
	if s := exchangeKind(99).String(); s != fmt.Sprintf("kind(%d)", 99) {
		t.Fatalf("unknown kind printed %q", s)
	}
}

// TestWatermarkSeesControlContextSchedules pins source (b) of the piggyback
// argument in transport.go: an event scheduled from replicated control
// context after the barrier messages were built — what a host OnDone/OnDrop
// callback does while the merged commit is applied — lowers the next
// watermark on every replica although no message reported it. With the
// cross-check on, a replica that missed it would abort the run.
func TestWatermarkSeesControlContextSchedules(t *testing.T) {
	verifyWatermark = true
	defer func() { verifyWatermark = false }()

	const groups = 2
	trs := NewMemTransports(groups)
	fired := make([][]time.Duration, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, err := NewShardedExecutorTopo(groups, 1, time.Millisecond, Topology{Groups: groups, Group: g}, trs[g])
			if err != nil {
				errs[g] = err
				return
			}
			record := fnEvent(func(now time.Duration) { fired[g] = append(fired[g], now) })
			barriers := 0
			x.setBarrierHook(func() error {
				msg := BarrierMsg{Group: int32(g), Posts: x.takeWirePosts()}
				msg.CtrlAt, msg.CtrlOK, msg.LaneAt, msg.LaneOK = x.heads()
				all, err := x.tr.Barrier(msg)
				if err != nil {
					return err
				}
				if err := x.noteBarrier(all); err != nil {
					return err
				}
				if barriers++; barriers == 1 {
					// The replicated "callback": both groups make the
					// schedule, only lane 1's owner enqueues it.
					x.scheduleLaneEvent(-1, 1, 20*time.Millisecond, record)
				}
				return nil
			})
			x.scheduleLaneEvent(-1, 0, 10*time.Millisecond, record)
			x.scheduleLaneEvent(-1, 1, 50*time.Millisecond, record)
			x.Run()
			errs[g] = x.Err()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	if want := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond}; !reflect.DeepEqual(fired[1], want) {
		t.Fatalf("lane 1 fired at %v, want %v", fired[1], want)
	}
}
