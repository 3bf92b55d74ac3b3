package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"pard/internal/core"
	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/sweep"
	"pard/internal/trace"
	"pard/internal/wire"
)

// FuzzWorkUnit fuzzes the sweep session's decode surface, mirroring
// FuzzPipelineSpec for the JSON spec surface: arbitrary bytes fed to the
// work-unit and unit-result decoders must never panic, and any frame that
// does decode must re-encode to the identical bytes — a unit then derives
// its key, as the worker does first. A worker is one Accept away from
// arbitrary network input, and a coordinator merges what its workers send,
// so this is the package's robustness floor. Seeds cover all four apps, the
// steady option variants, every option armed, an error, a real result and a
// warm hit, and malformed shapes, among them the gob unit a version 9
// coordinator sends.
func FuzzWorkUnit(f *testing.F) {
	seedUnits := []WorkUnit{
		{Epoch: 1, ID: 0, Key: "run|k", Spec: sweep.Spec{App: "tm", Kind: trace.Wiki, Policy: "pard"}},
		{Epoch: 2, ID: 7, Key: "run|k2", Spec: sweep.Spec{App: "lv", Kind: trace.Tweet, Policy: "nexus"}},
		{Epoch: 3, ID: 1, Key: "run|k3", Spec: sweep.Spec{App: "gm", Kind: trace.Azure, Policy: "clipper++"}},
		{Epoch: 4, ID: 2, Key: "run|k4", Spec: sweep.Spec{App: "da", Kind: trace.Steady, Policy: "pard",
			Opts: sweep.RunOpts{SteadyRate: 80, SLOOverride: 450 * time.Millisecond}}},
		{Epoch: 5, ID: 3, Key: "run|k5", Spec: sweep.Spec{Pipeline: pipeline.DADynamic(0.5), Policy: "naive"}},
		{Epoch: 6, ID: 4, Key: "run|k6", Spec: sweep.Spec{App: "tm", Kind: trace.Tweet, Policy: "pard", Opts: sweep.RunOpts{
			Probes:       sched.ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 2},
			Lambda:       0.3,
			WindowSize:   2 * time.Second,
			FixedWorkers: []int{3, 2, 4},
			SteadyDur:    5 * time.Second,
			Failures:     []sched.Failure{{At: time.Second, Module: 1, Count: 1}},
		}}},
	}
	for _, u := range seedUnits {
		f.Add(appendWorkUnit(nil, u))
	}
	res, err := testEngine().Run(tinyGrid()[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendUnitResult(nil, UnitResult{Epoch: 1, ID: 0, Key: "run|k", Err: "boom"}))
	f.Add(appendUnitResult(nil, UnitResult{Epoch: 1, ID: 0, Key: "run|k", Result: res, Elapsed: 3 * time.Millisecond}))
	f.Add(appendUnitResult(nil, UnitResult{Epoch: 9, ID: 2, Key: "run|k", Result: res, CacheHit: true}))
	var gobUnit bytes.Buffer
	if err := gob.NewEncoder(&gobUnit).Encode(seedUnits[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(gobUnit.Bytes())
	f.Add(appendWorkUnit(nil, seedUnits[3])[:9])
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02gob"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // keep adversarial inputs cheap
		}
		var u WorkUnit
		if decodeWorkUnit(data, &u) == nil {
			if again := appendWorkUnit(nil, u); !bytes.Equal(again, data) {
				t.Fatalf("unit decodes but re-encodes differently:\n in  %x\n out %x", data, again)
			}
			_ = u.Spec.Key()
		}
		var r UnitResult
		if decodeUnitResult(data, &r) == nil {
			if again := appendUnitResult(nil, r); !bytes.Equal(again, data) {
				t.Fatalf("result decodes but re-encodes differently:\n in  %x\n out %x", data, again)
			}
			if r.Result != nil && r.Result.Collector == nil {
				t.Fatal("a result decoded without a collector")
			}
		}
	})
}

// exchangeSeeds are frames a real session carries: an empty-drain barrier, a
// barrier with posts, intents, charges and merge resets from both groups, an
// opening step, a five-module board with full 512-sample reservoirs, a
// scaling round and a finish with probe series — and two a hostile peer
// sends, which once panicked the replica reading them: a board row and a
// post naming modules 99 and 1000 of five.
func exchangeSeeds() [][]byte {
	frame := func(seq uint64, kind uint8, n int, body func([]byte) []byte) []byte {
		return body(appendExchangeHeader(nil, seq, kind, n))
	}
	ms := time.Millisecond
	waits := make([]float64, 512)
	for i := range waits {
		waits[i] = float64(i%37) * 1e-4
	}
	var board []sched.BoardMsg
	for g := int32(0); g < 2; g++ {
		m := sched.BoardMsg{Group: g}
		for k := g; k < 5; k += 2 {
			m.Rows = append(m.Rows, sched.WireBoardRow{Mod: k, State: core.ModuleState{
				QueueDelay: 3 * ms, ProfiledDur: 21 * ms, BatchWait: waits,
				InputRate: 297.5, Throughput: 1523.8, WCL: 48 * ms,
			}})
		}
		board = append(board, m)
	}
	probe := &metrics.Series{Name: "queue-delay/1", T: []time.Duration{100 * ms, 200 * ms}, V: []float64{0.004, 0.006}}
	return [][]byte{
		frame(1, simKindStep, 1, func(b []byte) []byte {
			return appendStep(b, sched.StepMsg{Group: 1, CtrlAt: 100 * ms, CtrlOK: true, LaneAt: 3 * ms, LaneOK: true})
		}),
		frame(2, simKindBarrier, 2, func(b []byte) []byte {
			b = appendBarrier(b, sched.BarrierMsg{Group: 0, CtrlAt: 100 * ms, CtrlOK: true})
			return appendBarrier(b, sched.BarrierMsg{Group: 1, CtrlAt: 100 * ms, CtrlOK: true})
		}),
		frame(977, simKindBarrier, 2, func(b []byte) []byte {
			b = appendBarrier(b, sched.BarrierMsg{
				Group: 0, CtrlAt: 1100 * ms, CtrlOK: true, LaneAt: 1043 * ms, LaneOK: true,
				Posts:   []sched.WirePost{{At: 1044 * ms, Src: 0, Dst: 1, Req: 311}, {At: 1044 * ms, Src: 0, Dst: 3, Req: 311}},
				Charges: []sched.WireCharge{{Mod: 0, Req: 311, GPU: 4 * ms, Q: ms, W: 2 * ms, D: 7 * ms}},
				Merges:  []sched.WireMergeReset{{At: 1043 * ms, Mod: 0, Req: 311, Expected: 2}},
			})
			return appendBarrier(b, sched.BarrierMsg{
				Group: 1, CtrlAt: 1100 * ms, CtrlOK: true, LaneAt: 1047 * ms, LaneOK: true,
				Posts:   []sched.WirePost{{At: 1046 * ms, Src: 1, Dst: 4, Req: 305}},
				Intents: []sched.WireIntent{{At: 1043 * ms, Mod: 3, Req: 298, Drop: true}, {At: 1043 * ms, Mod: 1, Req: 290}},
			})
		}),
		frame(1200, simKindBoard, 2, func(b []byte) []byte {
			return appendBoard(appendBoard(b, board[0]), board[1])
		}),
		frame(1201, simKindScale, 1, func(b []byte) []byte {
			return appendScale(b, sched.ScaleMsg{Group: 1, Rows: []sched.WireScaleRow{{Mod: 1, Desired: 3}, {Mod: 3, Desired: 2}}})
		}),
		frame(3420, simKindFinish, 1, func(b []byte) []byte {
			return appendFinish(b, sched.FinishMsg{Group: 1, LaneFired: 5012, Reports: []sched.ModuleReport{
				{Mod: 1, Peak: 8, QueueDelay: probe, Load: &metrics.Series{Name: "load/1"}, WaitSamples: waits[:64]},
				{Mod: 3, Peak: 8},
			}})
		}),
		frame(1202, simKindBoard, 1, func(b []byte) []byte {
			return appendBoard(b, sched.BoardMsg{Group: 1, Rows: []sched.WireBoardRow{{Mod: 99}}})
		}),
		frame(978, simKindBarrier, 1, func(b []byte) []byte {
			return appendBarrier(b, sched.BarrierMsg{Group: 1, Posts: []sched.WirePost{{At: 1044 * ms, Src: 1, Dst: 1000, Req: 311}}})
		}),
	}
}

// namedModules lists the module indices a decoded message names: those of
// posts, intents, charges and merge resets, and — owned, one per module its
// sender holds — those of board and scaling rows and of reports.
func namedModules(msg any) (named, owned []int32) {
	switch m := msg.(type) {
	case *sched.BarrierMsg:
		for _, p := range m.Posts {
			named = append(named, p.Src, p.Dst)
		}
		for _, it := range m.Intents {
			named = append(named, it.Mod)
		}
		for _, c := range m.Charges {
			named = append(named, c.Mod)
		}
		for _, mr := range m.Merges {
			named = append(named, mr.Mod)
		}
	case *sched.BoardMsg:
		for _, r := range m.Rows {
			owned = append(owned, r.Mod)
		}
	case *sched.ScaleMsg:
		for _, r := range m.Rows {
			owned = append(owned, r.Mod)
		}
	case *sched.FinishMsg:
		for _, r := range m.Reports {
			owned = append(owned, r.Mod)
		}
	}
	return named, owned
}

// decodedElems counts every slice element a decoded message holds.
func decodedElems(msg any) int {
	switch m := msg.(type) {
	case *sched.BarrierMsg:
		return len(m.Posts) + len(m.Intents) + len(m.Charges) + len(m.Merges)
	case *sched.BoardMsg:
		n := len(m.Rows)
		for i := range m.Rows {
			n += len(m.Rows[i].State.BatchWait)
		}
		return n
	case *sched.ScaleMsg:
		return len(m.Rows)
	case *sched.FinishMsg:
		n := len(m.Reports)
		for i := range m.Reports {
			rep := &m.Reports[i]
			n += len(rep.WaitSamples)
			for _, s := range []*metrics.Series{rep.QueueDelay, rep.Load, rep.Mode, rep.Budget, rep.Remain} {
				if s != nil {
					n += len(s.Name) + len(s.T) + len(s.V)
				}
			}
		}
		return n
	}
	return 0
}

// fuzzExchangeKind feeds one payload to one kind's decoder at the sequence
// number and arity the payload itself announces (so the fuzzer reaches the
// message bodies), and holds whatever decodes to the codec's contract.
func fuzzExchangeKind[T any](t *testing.T, k *wireKind[T], data []byte, seq uint64, arity int) {
	var r wire.Reader
	into := make([]T, arity)
	if err := decodeExchange(&r, data, k, seq, into); err != nil {
		return
	}
	// Every decoded element consumed at least one byte of the frame: a
	// count cannot make the decoder allocate what the frame does not hold.
	elems := 0
	for i := range into {
		elems += decodedElems(&into[i])
	}
	if elems > len(data) {
		t.Fatalf("%s: %d decoded elements from a %d-byte frame", simKindName(k.kind), elems, len(data))
	}
	again := appendExchangeHeader(nil, seq, k.kind, arity)
	for i := range into {
		again = k.enc(again, into[i])
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("%s: frame decodes but re-encodes differently:\n in  %x\n out %x", simKindName(k.kind), data, again)
	}
	// A session of five modules checks what it decoded: a spoke's envelope
	// as lane group 1's of two, a reply's slot i as group i's of arity.
	shape := wireShape{mods: 5, groups: max(arity, 2)}
	for i := range into {
		g := i
		if arity == 1 {
			g = 1
		}
		if k.check(shape, &into[i], g) != nil {
			continue
		}
		named, owned := namedModules(&into[i])
		seen := map[int32]bool{}
		for _, mod := range append(named, owned...) {
			if mod < 0 || int(mod) >= shape.mods {
				t.Fatalf("%s: group %d's message passed the check naming module %d of %d", simKindName(k.kind), g, mod, shape.mods)
			}
		}
		for _, mod := range owned {
			if int(mod)%shape.groups != g || seen[mod] {
				t.Fatalf("%s: group %d's message passed the check with a row for module %d (owner %d, seen before %t)", simKindName(k.kind), g, mod, int(mod)%shape.groups, seen[mod])
			}
			seen[mod] = true
		}
	}
}

// FuzzSimExchange fuzzes the lockstep phase's one decode surface — the
// exchange frame, as a spoke's envelope (arity 1) and as the hub's reply
// (arity = groups) — for all five kinds. Arbitrary bytes must never panic,
// never decode into more elements than the frame has bytes, and whatever
// decodes must re-encode to the identical bytes (the format is canonical:
// minimal varints, 0/1 booleans, no trailing bytes). A message that passes
// the session's shape check names only modules in range, and rows only for
// modules its sender owns, each once.
func FuzzSimExchange(f *testing.F) {
	for _, seed := range exchangeSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{1, simKindBarrier, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // keep adversarial inputs cheap
		}
		// Read the header the way a peer in lockstep would have predicted it.
		hdr := wire.NewReader(data)
		seq, _, arity := hdr.Uint(), hdr.Byte(), hdr.Count(minWireMsg)
		if hdr.Err() != nil || arity > 64 {
			seq, arity = 0, 1
		}
		for _, a := range []int{arity, 1} {
			fuzzExchangeKind(t, &stepWire, data, seq, a)
			fuzzExchangeKind(t, &barrierWire, data, seq, a)
			fuzzExchangeKind(t, &boardWire, data, seq, a)
			fuzzExchangeKind(t, &scaleWire, data, seq, a)
			fuzzExchangeKind(t, &finishWire, data, seq, a)
		}
	})
}

// streamConn is a net.Conn whose peer already sent everything it will (r) and
// which keeps what is written to it (w).
type streamConn struct {
	net.Conn // nil: only the methods below are reachable
	r        *bytes.Reader
	w        *bytes.Buffer
}

func (c streamConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error)     { return c.w.Write(p) }
func (c streamConn) SetReadDeadline(time.Time) error { return nil }
func (c streamConn) Close() error                    { return nil }

// FuzzFrame fuzzes the framing layer: a stream of arbitrary bytes must never
// panic readFrame, or the sweep session's decoders over the frames it
// returns; the receive buffer must stay within a small multiple of the bytes
// that actually arrived, whatever the headers announce; and every frame
// readFrame returns must re-frame to the bytes it was read from.
func FuzzFrame(f *testing.F) {
	for _, seed := range exchangeSeeds() {
		framedSeed := append(make([]byte, frameHeaderLen), seed...)
		binary.BigEndian.PutUint32(framedSeed, uint32(len(seed)))
		f.Add(framedSeed)
	}
	var ack bytes.Buffer
	if err := sendAck(newFramed(streamConn{w: &ack}), HelloAck{Proto: ProtoVersion, LibraryFP: 0xfeed}); err != nil {
		f.Fatal(err)
	}
	f.Add(ack.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // a 4 GiB lie
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 1, 2}) // within the limit, never arrives
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 7})    // an empty frame, then a 1-byte one
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		fr := newFramed(streamConn{r: bytes.NewReader(data)})
		var reframed []byte
		for {
			payload, err := fr.readFrame(time.Second)
			if err != nil {
				break
			}
			var u WorkUnit
			var r UnitResult
			_, _ = decodeWorkUnit(payload, &u), decodeUnitResult(payload, &r)
			at := len(reframed)
			reframed = append(append(reframed, make([]byte, frameHeaderLen)...), payload...)
			binary.BigEndian.PutUint32(reframed[at:], uint32(len(payload)))
		}
		if !bytes.HasPrefix(data, reframed) {
			t.Fatalf("frames read do not re-frame to the stream's prefix")
		}
		limit := 2*len(data) + rxInitial
		if len(fr.rx) > limit {
			t.Fatalf("receive buffer grew to %d bytes on a %d-byte stream", len(fr.rx), len(data))
		}
	})
}
