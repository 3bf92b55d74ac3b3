package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/sched"
	"pard/internal/wire"
)

// roundTrip encodes msgs as one exchange frame, decodes it into zeroed
// storage, and requires the decoded messages — and their re-encoding — to be
// identical. It returns the frame's payload.
func roundTrip[T any](t *testing.T, k *wireKind[T], seq uint64, msgs []T) []byte {
	t.Helper()
	payload := appendExchangeHeader(nil, seq, k.kind, len(msgs))
	for _, m := range msgs {
		payload = k.enc(payload, m)
	}
	got := make([]T, len(msgs))
	var r wire.Reader
	if err := decodeExchange(&r, payload, k, seq, got); err != nil {
		t.Fatalf("%s: %v", simKindName(k.kind), err)
	}
	if !reflect.DeepEqual(msgs, got) {
		t.Fatalf("%s round trip altered the payload:\n sent %+v\n got  %+v", simKindName(k.kind), msgs, got)
	}
	again := appendExchangeHeader(nil, seq, k.kind, len(got))
	for _, m := range got {
		again = k.enc(again, m)
	}
	if !bytes.Equal(payload, again) {
		t.Fatalf("%s: decoded frame re-encodes to different bytes", simKindName(k.kind))
	}
	return payload
}

const maxDur = time.Duration(math.MaxInt64)

// TestWireRoundTrip is the codec's table: for every exchange kind the zero
// value, extreme integers and durations, a negative group, and populated
// slices survive encode/decode unchanged. Empty slices are the one documented
// normalization: they decode as nil, as they did under gob (the last case).
func TestWireRoundTrip(t *testing.T) {
	t.Run("step", func(t *testing.T) {
		roundTrip(t, &stepWire, 0, []sched.StepMsg{{}})
		roundTrip(t, &stepWire, math.MaxUint64, []sched.StepMsg{
			{Group: -1, CtrlAt: maxDur, CtrlOK: true, LaneAt: -maxDur - 1, LaneOK: true},
			{Group: math.MaxInt32, LaneAt: 40 * time.Millisecond, LaneOK: true},
		})
	})
	t.Run("barrier", func(t *testing.T) {
		roundTrip(t, &barrierWire, 1, []sched.BarrierMsg{{}})
		roundTrip(t, &barrierWire, 2, []sched.BarrierMsg{{
			Group: math.MinInt32, CtrlAt: maxDur, CtrlOK: true, LaneAt: maxDur, LaneOK: true,
			Posts:   []sched.WirePost{{At: maxDur, Src: -3, Dst: math.MaxInt32, Req: math.MaxUint64}, {}},
			Intents: []sched.WireIntent{{At: -1, Mod: -1, Req: 1, Drop: true}, {}},
			Charges: []sched.WireCharge{{Mod: 4, Req: 9, GPU: maxDur, Q: -maxDur, W: 1, D: -1}},
			Merges:  []sched.WireMergeReset{{At: time.Second, Mod: 0, Req: 7, Expected: -2}},
		}, {Group: 1}})
	})
	t.Run("board", func(t *testing.T) {
		roundTrip(t, &boardWire, 3, []sched.BoardMsg{{}})
		roundTrip(t, &boardWire, 4, []sched.BoardMsg{{Group: -7, Rows: []sched.WireBoardRow{
			{},
			{Mod: 2, State: core.ModuleState{
				QueueDelay: maxDur, ProfiledDur: -1,
				BatchWait: []float64{0, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64, -math.MaxFloat64},
				InputRate: 299.5, Throughput: math.Inf(-1), WCL: time.Hour,
			}},
		}}})
	})
	t.Run("scale", func(t *testing.T) {
		roundTrip(t, &scaleWire, 5, []sched.ScaleMsg{{}})
		roundTrip(t, &scaleWire, 6, []sched.ScaleMsg{{Group: -1, Rows: []sched.WireScaleRow{
			{Mod: math.MaxInt32, Desired: math.MinInt32}, {},
		}}})
	})
	t.Run("finish", func(t *testing.T) {
		roundTrip(t, &finishWire, 7, []sched.FinishMsg{{}})
		roundTrip(t, &finishWire, 8, []sched.FinishMsg{{Group: -1, LaneFired: math.MaxUint64, Reports: []sched.ModuleReport{
			{},
			{
				Mod: 3, Peak: math.MaxInt,
				QueueDelay:  &metrics.Series{Name: "queue-delay", T: []time.Duration{0, maxDur}, V: []float64{1.5, -2}},
				Load:        &metrics.Series{}, // present but empty: not the same as absent
				Remain:      &metrics.Series{Name: "ünïcode"},
				WaitSamples: []float64{0.25, 0.5},
			},
			{Mod: -1, Peak: math.MinInt},
		}}})
	})
	t.Run("board-into-reused-storage", func(t *testing.T) {
		// A session decodes every board reply into the same rows and samples:
		// a reply with fewer of either must not show the last one's.
		big := sched.BoardMsg{Group: 1, Rows: []sched.WireBoardRow{
			{Mod: 1, State: core.ModuleState{QueueDelay: time.Second, BatchWait: []float64{1, 2, 3}, WCL: time.Minute}},
			{Mod: 3, State: core.ModuleState{BatchWait: []float64{4}, InputRate: 7}},
		}}
		small := sched.BoardMsg{Group: 1, Rows: []sched.WireBoardRow{{Mod: 3, State: core.ModuleState{BatchWait: []float64{5}}}}}
		got := make([]sched.BoardMsg, 1)
		var r wire.Reader
		for i, want := range []sched.BoardMsg{big, small, big} {
			payload := boardWire.enc(appendExchangeHeader(nil, uint64(i), simKindBoard, 1), want)
			if err := decodeExchange(&r, payload, &boardWire, uint64(i), got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Fatalf("decode %d into reused storage: got %+v, want %+v", i, got[0], want)
			}
		}
	})
	t.Run("nan-bits", func(t *testing.T) {
		// DeepEqual cannot compare NaNs; the bit pattern must survive.
		nan := math.Float64frombits(0x7ff8_0000_dead_beef)
		payload := boardWire.enc(appendExchangeHeader(nil, 1, simKindBoard, 1),
			sched.BoardMsg{Rows: []sched.WireBoardRow{{State: core.ModuleState{InputRate: nan}}}})
		got := make([]sched.BoardMsg, 1)
		var r wire.Reader
		if err := decodeExchange(&r, payload, &boardWire, 1, got); err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got[0].Rows[0].State.InputRate); bits != math.Float64bits(nan) {
			t.Fatalf("NaN payload changed: %#x", bits)
		}
	})
	t.Run("empty-slices-decode-as-nil", func(t *testing.T) {
		empty := sched.BarrierMsg{Posts: []sched.WirePost{}, Intents: []sched.WireIntent{}}
		payload := barrierWire.enc(appendExchangeHeader(nil, 1, simKindBarrier, 1), empty)
		if want := roundTrip(t, &barrierWire, 1, []sched.BarrierMsg{{}}); !bytes.Equal(payload, want) {
			t.Fatal("empty and nil slices encode differently")
		}
	})
}

// TestWirePostRoundTripKeepsSendOrder pins the wire leg of the mailbox's
// sequence tiebreak: posts sharing (At, Src) carry no explicit sequence
// number — their send order IS the order of the Posts slice — so the codec
// must preserve slice order exactly, in every slice of the barrier message
// (sched's TestSortPostsKeepSendOrder pins the stable sort that follows).
func TestWirePostRoundTripKeepsSendOrder(t *testing.T) {
	roundTrip(t, &barrierWire, 12, []sched.BarrierMsg{{}, {
		Group: 1,
		Posts: []sched.WirePost{
			{At: 10 * time.Millisecond, Src: 1, Dst: 2, Req: 7},
			{At: 10 * time.Millisecond, Src: 1, Dst: 4, Req: 3}, // same (At, Src): order is the tiebreak
			{At: 10 * time.Millisecond, Src: 1, Dst: 2, Req: 9},
			{At: 12 * time.Millisecond, Src: 1, Dst: 2, Req: 1},
		},
		Intents: []sched.WireIntent{
			{At: 10 * time.Millisecond, Mod: 3, Req: 7, Drop: true},
			{At: 10 * time.Millisecond, Mod: 3, Req: 9},
		},
		Charges: []sched.WireCharge{{Mod: 3, Req: 7, GPU: time.Millisecond, Q: 2 * time.Millisecond}},
		Merges:  []sched.WireMergeReset{{At: 10 * time.Millisecond, Mod: 0, Req: 7, Expected: 2}},
	}})
}

// TestWireDecodeFailsClosed: every malformed shape is an error, and none of
// them allocates for a count the frame cannot back.
func TestWireDecodeFailsClosed(t *testing.T) {
	good := barrierWire.enc(appendExchangeHeader(nil, 5, simKindBarrier, 1),
		sched.BarrierMsg{Group: 1, Posts: []sched.WirePost{{At: 1, Src: 1, Dst: 2, Req: 3}}})
	hugeCount := append(appendExchangeHeader(nil, 5, simKindBarrier, 1),
		2, 0, 0, 0, 0, // group 1, heads
		0xff, 0xff, 0xff, 0xff, 0x0f) // 2^32-1 posts in a 15-byte frame
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "truncated"},
		{"truncated", good[:len(good)-3], "truncated"},
		{"trailing", append(bytes.Clone(good), 0), "trailing"},
		{"seq-skew", barrierWire.enc(appendExchangeHeader(nil, 6, simKindBarrier, 1), sched.BarrierMsg{}), "lockstep divergence"},
		{"kind-skew", stepWire.enc(appendExchangeHeader(nil, 5, simKindStep, 1), sched.StepMsg{}), "lockstep divergence"},
		{"unknown-kind", appendExchangeHeader(nil, 5, 99, 1), "kind(99)"},
		{"arity", barrierWire.enc(barrierWire.enc(appendExchangeHeader(nil, 5, simKindBarrier, 2), sched.BarrierMsg{}), sched.BarrierMsg{}), "2 contributions, want 1"},
		{"huge-count", hugeCount, "exceeds"},
		{"padded-varint", append([]byte{0x85, 0x00, simKindBarrier, 1}, good[3:]...), "varint"},
		{"bool-2", append(appendExchangeHeader(nil, 5, simKindBarrier, 1), 2, 0, 2, 0, 0, 0, 0, 0, 0), "boolean"},
		{"int32-overflow", binary.AppendVarint(appendExchangeHeader(nil, 5, simKindBarrier, 1), math.MaxInt32+1), "32-bit"},
	}
	// TotalAlloc is process-wide, so another goroutine's allocation can land
	// in one decode's delta; it cannot land in every repeat, while an
	// allocation the decode makes does. The bound holds the least delta.
	const repeats = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			least := uint64(math.MaxUint64)
			for range repeats {
				var r wire.Reader
				into := make([]sched.BarrierMsg, 1)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := decodeExchange(&r, tc.payload, &barrierWire, 5, into)
				runtime.ReadMemStats(&after)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error = %v, want mention of %q", err, tc.want)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > 4<<10 {
				t.Fatalf("refusing a %d-byte frame allocated %d bytes (least of %d decodes)", len(tc.payload), least, repeats)
			}
		})
	}
}

// wirePair connects a hub and a one-spoke session over loopback TCP, past
// the handshake.
func wirePair(t testing.TB) (*simHub, *simSpoke) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, _ := net.Dial("tcp", ln.Addr().String())
		dialed <- c
	}()
	hubConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	spokeConn := <-dialed
	if spokeConn == nil {
		t.Fatal("dial failed")
	}
	hub := &simHub{newSimSession([]*framed{newFramed(hubConn)}, wireShape{mods: 5, groups: 2}, 10*time.Second)}
	spoke := &simSpoke{newSimSession([]*framed{newFramed(spokeConn)}, wireShape{mods: 5, groups: 2}, 10*time.Second)}
	t.Cleanup(func() { hub.Abort(nil); spoke.Abort(nil); hubConn.Close(); spokeConn.Close() })
	return hub, spoke
}

// TestAllocsWireExchange pins the transport's steady state over a live
// connection: one Step and one Barrier exchange — a typical barrier's
// posts, intents, charges and merge resets — and one sync tick's Board and
// Scale exchanges — rows carrying a full ring's 512 batch-wait samples
// — allocate nothing on the hub or on the spoke (AllocsPerRun counts both
// goroutines): every reply decodes into per-session storage. The executor's
// side of a barrier is pinned at zero too: it builds the message into
// buffers it alternates (see sched.Cluster.exchangeBarrier).
func TestAllocsWireExchange(t *testing.T) {
	hub, spoke := wirePair(t)
	barrier := func(g int32) sched.BarrierMsg {
		return sched.BarrierMsg{
			Group: g, CtrlAt: 3 * time.Second, CtrlOK: true, LaneAt: 2900 * time.Millisecond, LaneOK: true,
			Posts:   []sched.WirePost{{At: 2901 * time.Millisecond, Src: g, Dst: 1 - g, Req: 871}, {At: 2902 * time.Millisecond, Src: g, Dst: 1 - g, Req: 872}},
			Intents: []sched.WireIntent{{At: 2900 * time.Millisecond, Mod: g, Req: 860, Drop: g == 1}},
			Charges: []sched.WireCharge{{Mod: g, Req: 860, GPU: 4 * time.Millisecond, Q: time.Millisecond, W: 2 * time.Millisecond, D: 7 * time.Millisecond}},
			Merges:  []sched.WireMergeReset{{At: 2900 * time.Millisecond, Mod: g, Req: 871, Expected: 2}},
		}
	}
	waits := make([]float64, 512)
	for i := range waits {
		waits[i] = float64(i) * 1e-4
	}
	board := func(g int32) sched.BoardMsg {
		m := sched.BoardMsg{Group: g}
		for k := g; k < 5; k += 2 {
			m.Rows = append(m.Rows, sched.WireBoardRow{Mod: k, State: core.ModuleState{
				QueueDelay: 3 * time.Millisecond, ProfiledDur: 21 * time.Millisecond, BatchWait: waits,
				InputRate: 297.5, Throughput: 1523.8, WCL: 48 * time.Millisecond,
			}})
		}
		return m
	}
	scale := func(g int32) sched.ScaleMsg {
		return sched.ScaleMsg{Group: g, Rows: []sched.WireScaleRow{{Mod: g, Desired: 3}, {Mod: g + 2, Desired: 2}}}
	}
	hubMsg, spokeMsg := barrier(0), barrier(1)
	hubBoard, spokeBoard := board(0), board(1)
	hubScale, spokeScale := scale(0), scale(1)
	done := make(chan error)
	rounds := make(chan struct{})
	go func() {
		for range rounds {
			_, err := spoke.Step(sched.StepMsg{Group: 1, LaneAt: time.Second, LaneOK: true})
			if err == nil {
				_, err = spoke.Barrier(spokeMsg)
			}
			if err == nil {
				_, err = spoke.Board(spokeBoard)
			}
			if err == nil {
				_, err = spoke.Scale(spokeScale)
			}
			done <- err
		}
	}()
	defer close(rounds)
	check := true
	round := func() {
		rounds <- struct{}{}
		_, err := hub.Step(sched.StepMsg{LaneAt: time.Second, LaneOK: true})
		var all []sched.BarrierMsg
		var boards []sched.BoardMsg
		var scales []sched.ScaleMsg
		if err == nil {
			all, err = hub.Barrier(hubMsg)
		}
		if err == nil {
			boards, err = hub.Board(hubBoard)
		}
		if err == nil {
			scales, err = hub.Scale(hubScale)
		}
		if serr := <-done; err == nil {
			err = serr
		}
		if err != nil {
			t.Fatal(err)
		}
		if check && (len(all) != 2 || !reflect.DeepEqual(all[1], spokeMsg)) {
			t.Fatalf("hub decoded %+v, spoke sent %+v", all, spokeMsg)
		}
		if check && (len(boards) != 2 || !reflect.DeepEqual(boards[1], spokeBoard) || len(scales) != 2 || !reflect.DeepEqual(scales[1], spokeScale)) {
			t.Fatalf("hub decoded boards %+v and scales %+v, spoke sent %+v and %+v", boards, scales, spokeBoard, spokeScale)
		}
	}
	round()       // warm the reply and receive buffers
	check = false // DeepEqual allocates; the channel operations do not
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("one Step, Barrier, Board and Scale exchange each allocate %.2f together, want 0", avg)
	}
	if got := hub.stats.exchanges[simKindBarrier]; got != 202 {
		t.Fatalf("hub counted %d barrier exchanges, want 202", got)
	}
	if hub.stats.bytesTx != spoke.stats.bytesRx || hub.stats.framesRx != spoke.stats.framesTx {
		t.Fatalf("hub and spoke disagree on the traffic: hub %+v, spoke %+v", hub.stats, spoke.stats)
	}
}

// TestReadFrameBuffering drives readFrame through the shapes a stream can
// take: several frames in one segment, a frame split across reads, a frame
// larger than the buffer, and a peer that closes mid-frame.
func TestReadFrameBuffering(t *testing.T) {
	frame := func(n int, fill byte) []byte {
		b := make([]byte, frameHeaderLen, frameHeaderLen+n)
		b = append(b, bytes.Repeat([]byte{fill}, n)...)
		b[3], b[2], b[1] = byte(n), byte(n>>8), byte(n>>16)
		return b
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	big := 3*rxInitial + 17
	go func() {
		stream := append(frame(5, 'a'), frame(0, 0)...)
		stream = append(stream, frame(big, 'b')...)
		stream = append(stream, frame(9, 'c')...)
		// Arbitrary segmentation, including a split inside a header.
		for _, cut := range []int{7, 2, 3, rxInitial, 1} {
			a.Write(stream[:cut])
			stream = stream[cut:]
		}
		a.Write(stream)
		a.Write(frame(100, 'd')[:50])
		a.Close()
	}()
	f := newFramed(b)
	for i, want := range []struct {
		n    int
		fill byte
	}{{5, 'a'}, {0, 0}, {big, 'b'}, {9, 'c'}} {
		got, err := f.readFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != want.n || bytes.Count(got, []byte{want.fill}) != want.n {
			t.Fatalf("frame %d: got %d bytes, want %d of %q", i, len(got), want.n, want.fill)
		}
	}
	if _, err := f.readFrame(5 * time.Second); err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("a frame cut short by a close read as %v", err)
	}
}
