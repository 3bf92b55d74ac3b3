package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/trace"
)

// Exchange codec: the lockstep phase of a distributed-simulation session
// speaks a hand-written binary format instead of gob. The five message kinds
// are by-value structs of integers, durations, booleans and float slices, a
// session makes thousands of exchanges, and gob — a fresh encoder, decoder
// and the type descriptors of all five kinds on every frame — cost twenty
// times the engine run it was synchronizing. Encoders append to a
// caller-supplied buffer and decoders read from a byte slice, so a
// steady-state exchange allocates nothing.
//
// One exchange frame, in either direction, is
//
//	seq uvarint | kind byte | count uvarint | count × message
//
// with count 1 from a spoke (its own contribution) and count = groups from
// the hub (every contribution, in group order). Integers and durations are
// zigzag varints, unsigned values uvarints, booleans one byte (0 or 1),
// floats 8 bytes big-endian IEEE 754, strings and slices a uvarint length
// followed by the elements, optional pointers a presence byte.
//
// The decoder fails closed: every count is checked against the bytes left in
// the frame before anything is allocated, varints must be minimal and
// booleans 0 or 1 (so whatever decodes re-encodes to the identical bytes),
// and truncated frames, trailing bytes, unknown kinds and a count other than
// the expected arity are errors — each of which poisons the session. An
// empty slice decodes as nil, as it did under gob.
//
// A session then checks every decoded message against its simulation's
// shape (wireShape) before the engine sees it, since the engine indexes its
// modules with what the peers send.

// Exchange kind tags on the wire; they mirror the sharded executor's
// rendezvous kinds so lockstep violations carry a readable name.
const (
	simKindStep uint8 = iota + 1
	simKindBarrier
	simKindBoard
	simKindScale
	simKindFinish
)

func simKindName(k uint8) string {
	switch k {
	case simKindStep:
		return "step"
	case simKindBarrier:
		return "barrier"
	case simKindBoard:
		return "board"
	case simKindScale:
		return "scale"
	case simKindFinish:
		return "finish"
	}
	return fmt.Sprintf("kind(%d)", k)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, v []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, f := range v {
		b = appendFloat(b, f)
	}
	return b
}

func appendSeries(b []byte, s *metrics.Series) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = appendStr(append(b, 1), s.Name)
	b = appendInts(b, s.T)
	return appendFloats(b, s.V)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInts[T ~int | ~int64](b []byte, v []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// wireReader consumes one frame's payload. The first failure sticks: later
// reads return zero values, so a decoder checks err once at the end.
type wireReader struct {
	b   []byte
	err error
}

var (
	errWireTruncated = errors.New("truncated frame")
	errWireVarint    = errors.New("malformed or non-minimal varint")
)

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errWireTruncated)
		return 0
	case n < 0, n > 1 && r.b[n-1] == 0: // overflow, or padded: would not re-encode to the same bytes
		r.fail(errWireVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int() int64 {
	u := r.uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *wireReader) dur() time.Duration { return time.Duration(r.int()) }

func (r *wireReader) int32() int32 {
	v := r.int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(fmt.Errorf("value %d overflows a 32-bit field", v))
		return 0
	}
	return int32(v)
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errWireTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail(fmt.Errorf("boolean byte %#x", v))
	}
	return v == 1
}

func (r *wireReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(errWireTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads an element count and refuses it unless the frame still holds
// at least min bytes per element — before the caller allocates anything.
func (r *wireReader) count(min int) int {
	n := r.uint()
	if n > uint64(len(r.b)/min) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left in the frame", n, len(r.b)))
		return 0
	}
	return int(n)
}

// floats decodes a float slice into dst's storage, allocating only when dst
// is too short; a nil dst with no floats to read stays nil.
func (r *wireReader) floats(dst []float64) []float64 {
	n := r.count(8)
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = r.float()
	}
	return dst
}

func (r *wireReader) series() *metrics.Series {
	if !r.bool() {
		return nil
	}
	s := &metrics.Series{Name: r.str(), T: ints[time.Duration](r)}
	s.V = r.floats(nil)
	if len(s.V) != len(s.T) {
		r.fail(fmt.Errorf("series %q has %d timestamps for %d values", s.Name, len(s.T), len(s.V)))
	}
	return s
}

func (r *wireReader) str() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// integer reads one zigzag varint into T, refusing a value T cannot hold.
func integer[T ~int | ~int64](r *wireReader) T {
	v := r.int()
	if int64(T(v)) != v {
		r.fail(fmt.Errorf("value %d overflows %T", v, T(0)))
		return 0
	}
	return T(v)
}

// ints decodes a slice of zigzag varints; none to read decodes as nil.
func ints[T ~int | ~int64](r *wireReader) []T {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = integer[T](r)
	}
	return v
}

// done reports the first failure of a decode of what, or the bytes it left.
func (r *wireReader) done(what string) error {
	if r.err != nil {
		return fmt.Errorf("decoding %s frame: %w", what, r.err)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("decoding %s frame: %d trailing bytes", what, len(r.b))
	}
	return nil
}

// Minimum encoded sizes of the repeated elements, for count's guard.
const (
	minWirePost   = 4  // At, Src, Dst, Req
	minWireIntent = 4  // At, Mod, Req, Drop
	minWireCharge = 6  // Mod, Req, GPU, Q, W, D
	minWireMerge  = 4  // At, Mod, Req, Expected
	minBoardRow   = 22 // Mod, three durations, BatchWait count, two floats, Overloaded
	minScaleRow   = 2  // Mod, Desired
	minReport     = 8  // Mod, Peak, five presence bytes, WaitSamples count
	minWireMsg    = 2  // the smallest message: a ScaleMsg with no rows
)

func appendStep(b []byte, m sched.StepMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendVarint(b, int64(m.CtrlAt))
	b = appendBool(b, m.CtrlOK)
	b = binary.AppendVarint(b, int64(m.LaneAt))
	return appendBool(b, m.LaneOK)
}

func (r *wireReader) step(m *sched.StepMsg) {
	m.Group = r.int32()
	m.CtrlAt, m.CtrlOK = r.dur(), r.bool()
	m.LaneAt, m.LaneOK = r.dur(), r.bool()
}

func appendBarrier(b []byte, m sched.BarrierMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendVarint(b, int64(m.CtrlAt))
	b = appendBool(b, m.CtrlOK)
	b = binary.AppendVarint(b, int64(m.LaneAt))
	b = appendBool(b, m.LaneOK)
	b = binary.AppendUvarint(b, uint64(len(m.Posts)))
	for _, p := range m.Posts {
		b = binary.AppendVarint(b, int64(p.At))
		b = binary.AppendVarint(b, int64(p.Src))
		b = binary.AppendVarint(b, int64(p.Dst))
		b = binary.AppendUvarint(b, p.Req)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Intents)))
	for _, it := range m.Intents {
		b = binary.AppendVarint(b, int64(it.At))
		b = binary.AppendVarint(b, int64(it.Mod))
		b = binary.AppendUvarint(b, it.Req)
		b = appendBool(b, it.Drop)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Charges)))
	for _, c := range m.Charges {
		b = binary.AppendVarint(b, int64(c.Mod))
		b = binary.AppendUvarint(b, c.Req)
		b = binary.AppendVarint(b, int64(c.GPU))
		b = binary.AppendVarint(b, int64(c.Q))
		b = binary.AppendVarint(b, int64(c.W))
		b = binary.AppendVarint(b, int64(c.D))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Merges)))
	for _, mr := range m.Merges {
		b = binary.AppendVarint(b, int64(mr.At))
		b = binary.AppendVarint(b, int64(mr.Mod))
		b = binary.AppendUvarint(b, mr.Req)
		b = binary.AppendVarint(b, int64(mr.Expected))
	}
	return b
}

// barrier decodes into m, reusing the capacity of m's slices: the executor
// copies out what it keeps before the next exchange (see sched.Transport), so
// a session decodes every barrier into the same storage.
func (r *wireReader) barrier(m *sched.BarrierMsg) {
	m.Group = r.int32()
	m.CtrlAt, m.CtrlOK = r.dur(), r.bool()
	m.LaneAt, m.LaneOK = r.dur(), r.bool()
	n := r.count(minWirePost)
	m.Posts = slices.Grow(m.Posts[:0], n)
	for i := 0; i < n; i++ {
		m.Posts = append(m.Posts, sched.WirePost{At: r.dur(), Src: r.int32(), Dst: r.int32(), Req: r.uint()})
	}
	n = r.count(minWireIntent)
	m.Intents = slices.Grow(m.Intents[:0], n)
	for i := 0; i < n; i++ {
		m.Intents = append(m.Intents, sched.WireIntent{At: r.dur(), Mod: r.int32(), Req: r.uint(), Drop: r.bool()})
	}
	n = r.count(minWireCharge)
	m.Charges = slices.Grow(m.Charges[:0], n)
	for i := 0; i < n; i++ {
		m.Charges = append(m.Charges, sched.WireCharge{Mod: r.int32(), Req: r.uint(), GPU: r.dur(), Q: r.dur(), W: r.dur(), D: r.dur()})
	}
	n = r.count(minWireMerge)
	m.Merges = slices.Grow(m.Merges[:0], n)
	for i := 0; i < n; i++ {
		m.Merges = append(m.Merges, sched.WireMergeReset{At: r.dur(), Mod: r.int32(), Req: r.uint(), Expected: r.int32()})
	}
}

func appendBoard(b []byte, m sched.BoardMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendUvarint(b, uint64(len(m.Rows)))
	for i := range m.Rows {
		row := &m.Rows[i]
		b = binary.AppendVarint(b, int64(row.Mod))
		b = binary.AppendVarint(b, int64(row.State.QueueDelay))
		b = binary.AppendVarint(b, int64(row.State.ProfiledDur))
		b = appendFloats(b, row.State.BatchWait)
		b = appendFloat(b, row.State.InputRate)
		b = appendFloat(b, row.State.Throughput)
		b = appendBool(b, row.State.Overloaded)
		b = binary.AppendVarint(b, int64(row.State.WCL))
	}
	return b
}

// board decodes into m, reusing the capacity of m's rows and of each row's
// BatchWait samples: the executor publishes the rows to its state board,
// which copies them, before the next exchange (see sched.Transport).
func (r *wireReader) board(m *sched.BoardMsg) {
	m.Group = r.int32()
	n := r.count(minBoardRow)
	m.Rows = slices.Grow(m.Rows[:0], n)[:n]
	for i := range m.Rows {
		row := &m.Rows[i]
		row.Mod = r.int32()
		row.State.QueueDelay = r.dur()
		row.State.ProfiledDur = r.dur()
		row.State.BatchWait = r.floats(row.State.BatchWait)
		row.State.InputRate = r.float()
		row.State.Throughput = r.float()
		row.State.Overloaded = r.bool()
		row.State.WCL = r.dur()
	}
}

func appendScale(b []byte, m sched.ScaleMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendUvarint(b, uint64(len(m.Rows)))
	for _, row := range m.Rows {
		b = binary.AppendVarint(b, int64(row.Mod))
		b = binary.AppendVarint(b, int64(row.Desired))
	}
	return b
}

// scale decodes into m, reusing the capacity of m's rows, as board does.
func (r *wireReader) scale(m *sched.ScaleMsg) {
	m.Group = r.int32()
	n := r.count(minScaleRow)
	m.Rows = slices.Grow(m.Rows[:0], n)[:n]
	for i := range m.Rows {
		m.Rows[i] = sched.WireScaleRow{Mod: r.int32(), Desired: r.int32()}
	}
}

func appendFinish(b []byte, m sched.FinishMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendUvarint(b, m.LaneFired)
	b = binary.AppendUvarint(b, uint64(len(m.Reports)))
	for i := range m.Reports {
		rep := &m.Reports[i]
		b = binary.AppendVarint(b, int64(rep.Mod))
		b = binary.AppendVarint(b, int64(rep.Peak))
		for _, s := range [...]*metrics.Series{rep.QueueDelay, rep.Load, rep.Mode, rep.Budget, rep.Remain} {
			b = appendSeries(b, s)
		}
		b = appendFloats(b, rep.WaitSamples)
	}
	return b
}

// finish decodes into freshly allocated reports: the caller assembles its
// result from them.
func (r *wireReader) finish(m *sched.FinishMsg) {
	m.Group = r.int32()
	m.LaneFired = r.uint()
	m.Reports = nil
	if n := r.count(minReport); n > 0 {
		m.Reports = make([]sched.ModuleReport, n)
	}
	for i := range m.Reports {
		rep := &m.Reports[i]
		rep.Mod = r.int32()
		rep.Peak = integer[int](r)
		rep.QueueDelay, rep.Load, rep.Mode = r.series(), r.series(), r.series()
		rep.Budget, rep.Remain = r.series(), r.series()
		rep.WaitSamples = r.floats(nil)
	}
}

// wireShape is what a session knows of its simulation: the module count and
// the lane-group count. The codec decodes any integer; the checks below
// refuse a message naming a module outside [0, mods), and a board row,
// scaling row or report for a module its sender does not own (k % groups) or
// names twice. Senders emit rows and reports in module order, so a module
// named twice shows as one not after its predecessor.
type wireShape struct{ mods, groups int }

// mod checks one module index.
func (s wireShape) mod(field string, k int32) error {
	if k < 0 || int(k) >= s.mods {
		return fmt.Errorf("%s %d outside [0,%d)", field, k, s.mods)
	}
	return nil
}

// ownedRows checks the modules of group's rows or reports: each in range,
// owned by group, and after the one before.
func ownedRows[R any](s wireShape, field string, rows []R, mod func(*R) int32, group int) error {
	prev := int32(-1)
	for i := range rows {
		k := mod(&rows[i])
		if err := s.mod(field, k); err != nil {
			return err
		}
		if owner := int(k) % s.groups; owner != group {
			return fmt.Errorf("%s %d is lane group %d's module", field, k, owner)
		}
		if k <= prev {
			return fmt.Errorf("%s %d appears twice or out of module order", field, k)
		}
		prev = k
	}
	return nil
}

func (s wireShape) checkBarrier(m *sched.BarrierMsg, _ int) error {
	for i := range m.Posts {
		if err := s.mod("post Src", m.Posts[i].Src); err != nil {
			return err
		}
		if err := s.mod("post Dst", m.Posts[i].Dst); err != nil {
			return err
		}
	}
	for i := range m.Intents {
		if err := s.mod("intent Mod", m.Intents[i].Mod); err != nil {
			return err
		}
	}
	for i := range m.Charges {
		if err := s.mod("charge Mod", m.Charges[i].Mod); err != nil {
			return err
		}
	}
	for i := range m.Merges {
		if err := s.mod("merge reset Mod", m.Merges[i].Mod); err != nil {
			return err
		}
	}
	return nil
}

// wireKind binds one exchange kind to its codec and its shape check. Encoders
// take the message by value and decoders a pointer into the reply slice, so
// going through the function values moves nothing to the heap.
type wireKind[T any] struct {
	kind  uint8
	enc   func([]byte, T) []byte
	dec   func(*wireReader, *T)
	group func(*T) int32
	check func(wireShape, *T, int) error // the message is from the lane group given
}

var (
	stepWire = wireKind[sched.StepMsg]{simKindStep, appendStep, (*wireReader).step,
		func(m *sched.StepMsg) int32 { return m.Group },
		func(wireShape, *sched.StepMsg, int) error { return nil }}
	barrierWire = wireKind[sched.BarrierMsg]{simKindBarrier, appendBarrier, (*wireReader).barrier,
		func(m *sched.BarrierMsg) int32 { return m.Group }, wireShape.checkBarrier}
	boardWire = wireKind[sched.BoardMsg]{simKindBoard, appendBoard, (*wireReader).board,
		func(m *sched.BoardMsg) int32 { return m.Group },
		func(s wireShape, m *sched.BoardMsg, g int) error {
			return ownedRows(s, "board row Mod", m.Rows, func(r *sched.WireBoardRow) int32 { return r.Mod }, g)
		}}
	scaleWire = wireKind[sched.ScaleMsg]{simKindScale, appendScale, (*wireReader).scale,
		func(m *sched.ScaleMsg) int32 { return m.Group },
		func(s wireShape, m *sched.ScaleMsg, g int) error {
			return ownedRows(s, "scale row Mod", m.Rows, func(r *sched.WireScaleRow) int32 { return r.Mod }, g)
		}}
	finishWire = wireKind[sched.FinishMsg]{simKindFinish, appendFinish, (*wireReader).finish,
		func(m *sched.FinishMsg) int32 { return m.Group },
		func(s wireShape, m *sched.FinishMsg, g int) error {
			return ownedRows(s, "report Mod", m.Reports, func(r *sched.ModuleReport) int32 { return r.Mod }, g)
		}}
)

// appendExchangeHeader starts an exchange frame's payload; count encoded
// messages follow.
func appendExchangeHeader(b []byte, seq uint64, kind uint8, count int) []byte {
	b = binary.AppendUvarint(b, seq)
	b = append(b, kind)
	return binary.AppendUvarint(b, uint64(count))
}

// decodeExchange decodes one exchange frame's payload into the len(into)
// messages the session expects at (seq, kind), through the caller's reader
// (kept in the session so decoding allocates no reader). A different
// sequence number or kind means the peer has left lockstep.
func decodeExchange[T any](r *wireReader, payload []byte, k *wireKind[T], seq uint64, into []T) error {
	*r = wireReader{b: payload}
	gotSeq, gotKind := r.uint(), r.byte()
	if r.err == nil && (gotSeq != seq || gotKind != k.kind) {
		return fmt.Errorf("lockstep divergence: peer sent %s seq %d while the session is at %s seq %d",
			simKindName(gotKind), gotSeq, simKindName(k.kind), seq)
	}
	n := r.count(minWireMsg)
	if r.err == nil && n != len(into) {
		return fmt.Errorf("frame carries %d contributions, want %d", n, len(into))
	}
	for i := range into {
		if r.err != nil {
			break
		}
		k.dec(r, &into[i])
	}
	return r.done(simKindName(k.kind))
}

// Handshake codec: the Hello and HelloAck that open every session, in the
// exchanges' format, each alone in its frame. Both payloads begin with the
// sender's protocol version, and a decoder stops there when it is not this
// side's: the rest is another version's layout, so the refusal names the
// version instead of a malformed field. A peer of version 5 or older opens
// with gob instead, whose leading message length reads as a stray version.
//
//	hello:  proto | LibraryFP | BaseSeed | TraceDuration | Groups | Group | job?
//	job:    spec? | PolicyName | trace? | Seed | SyncPeriod | NetDelay |
//	        JitterPct | Scaling | FixedWorkers | Probes | Failures | Lambda |
//	        PriorityWindow
//	ack:    proto | LibraryFP | Capacity | Err
//
// with a spec App | SLO | modules (ID | Name | Pres | Subs | Exclusive |
// BranchProb), a trace Name | Arrivals | Duration, and the scaling, probe and
// failure fields in their declaration order.

// Minimum encoded sizes of the handshake's repeated elements.
const (
	minModule  = 6 // ID, Name, Pres, Subs, Exclusive, BranchProb
	minFailure = 3 // At, Module, Count
)

// versionMismatch is the refusal of a peer speaking protocol version peer.
func versionMismatch(peer int) error {
	return fmt.Errorf("protocol version mismatch: this side speaks %d, the peer %d (up to version 5 the handshake is gob, read here as a stray number)", ProtoVersion, peer)
}

// helloCap is room for a hello frame that its encoding rarely outgrows: the
// widest varint per trace arrival and 512 bytes for everything else.
func helloCap(h Hello) int {
	n := frameHeaderLen + 512
	if h.Job != nil && h.Job.Trace != nil {
		n += binary.MaxVarintLen64 * len(h.Job.Trace.Arrivals)
	}
	return n
}

func appendHello(b []byte, h Hello) []byte {
	b = binary.AppendVarint(b, int64(h.Proto))
	b = binary.AppendUvarint(b, h.LibraryFP)
	b = binary.AppendVarint(b, h.BaseSeed)
	b = binary.AppendVarint(b, int64(h.TraceDuration))
	b = binary.AppendVarint(b, int64(h.Groups))
	b = binary.AppendVarint(b, int64(h.Group))
	if h.Job == nil {
		return append(b, 0)
	}
	return appendJob(append(b, 1), h.Job)
}

// decodeHello decodes a hello payload into h. A hello of another protocol
// version decodes only as far as its version and fails with versionMismatch.
func decodeHello(payload []byte, h *Hello) error {
	r := wireReader{b: payload}
	*h = Hello{Proto: integer[int](&r)}
	if r.err == nil && h.Proto != ProtoVersion {
		return versionMismatch(h.Proto)
	}
	h.LibraryFP = r.uint()
	h.BaseSeed = r.int()
	h.TraceDuration = r.dur()
	h.Groups, h.Group = integer[int](&r), integer[int](&r)
	if r.bool() {
		h.Job = r.job()
	}
	return r.done("hello")
}

func appendHelloAck(b []byte, a HelloAck) []byte {
	b = binary.AppendVarint(b, int64(a.Proto))
	b = binary.AppendUvarint(b, a.LibraryFP)
	b = binary.AppendVarint(b, int64(a.Capacity))
	return appendStr(b, a.Err)
}

// decodeHelloAck decodes an ack payload into a, as decodeHello does a hello.
func decodeHelloAck(payload []byte, a *HelloAck) error {
	r := wireReader{b: payload}
	*a = HelloAck{Proto: integer[int](&r)}
	if r.err == nil && a.Proto != ProtoVersion {
		return versionMismatch(a.Proto)
	}
	a.LibraryFP = r.uint()
	a.Capacity = integer[int](&r)
	a.Err = r.str()
	return r.done("hello ack")
}

func appendJob(b []byte, j *SimJob) []byte {
	b = appendSpec(b, j.Spec)
	b = appendStr(b, j.PolicyName)
	b = appendTrace(b, j.Trace)
	b = binary.AppendVarint(b, j.Seed)
	b = binary.AppendVarint(b, int64(j.SyncPeriod))
	b = binary.AppendVarint(b, int64(j.NetDelay))
	b = appendFloat(b, j.JitterPct)
	sc := j.Scaling
	b = appendBool(b, sc.Enabled)
	b = binary.AppendVarint(b, int64(sc.Period))
	b = binary.AppendVarint(b, int64(sc.ColdStart))
	b = appendFloat(b, sc.Headroom)
	b = binary.AppendVarint(b, int64(sc.MaxWorkers))
	b = binary.AppendVarint(b, int64(sc.MinWorkers))
	b = binary.AppendVarint(b, int64(sc.TotalGPUs))
	b = appendInts(b, j.FixedWorkers)
	p := j.Probes
	b = appendBool(b, p.QueueDelay)
	b = appendBool(b, p.LoadFactor)
	b = appendBool(b, p.Budget)
	b = appendBool(b, p.Decomposition)
	b = binary.AppendVarint(b, int64(p.SampleEvery))
	b = binary.AppendUvarint(b, uint64(len(j.Failures)))
	for _, f := range j.Failures {
		b = binary.AppendVarint(b, int64(f.At))
		b = binary.AppendVarint(b, int64(f.Module))
		b = binary.AppendVarint(b, int64(f.Count))
	}
	b = appendFloat(b, j.Lambda)
	return binary.AppendVarint(b, int64(j.PriorityWindow))
}

func (r *wireReader) job() *SimJob {
	j := &SimJob{Spec: r.spec(), PolicyName: r.str(), Trace: r.trace(), Seed: r.int()}
	j.SyncPeriod, j.NetDelay = r.dur(), r.dur()
	j.JitterPct = r.float()
	sc := &j.Scaling
	sc.Enabled = r.bool()
	sc.Period, sc.ColdStart = r.dur(), r.dur()
	sc.Headroom = r.float()
	sc.MaxWorkers, sc.MinWorkers, sc.TotalGPUs = integer[int](r), integer[int](r), integer[int](r)
	j.FixedWorkers = ints[int](r)
	p := &j.Probes
	p.QueueDelay, p.LoadFactor, p.Budget, p.Decomposition = r.bool(), r.bool(), r.bool(), r.bool()
	p.SampleEvery = integer[int](r)
	if n := r.count(minFailure); n > 0 {
		j.Failures = make([]sched.Failure, n)
		for i := range j.Failures {
			j.Failures[i] = sched.Failure{At: r.dur(), Module: integer[int](r), Count: integer[int](r)}
		}
	}
	j.Lambda = r.float()
	j.PriorityWindow = r.dur()
	return j
}

func appendSpec(b []byte, s *pipeline.Spec) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = appendStr(append(b, 1), s.App)
	b = binary.AppendVarint(b, int64(s.SLO))
	b = binary.AppendUvarint(b, uint64(len(s.Modules)))
	for i := range s.Modules {
		m := &s.Modules[i]
		b = binary.AppendVarint(b, int64(m.ID))
		b = appendStr(b, m.Name)
		b = appendInts(b, m.Pres)
		b = appendInts(b, m.Subs)
		b = appendBool(b, m.Exclusive)
		b = appendFloats(b, m.BranchProb)
	}
	return b
}

func (r *wireReader) spec() *pipeline.Spec {
	if !r.bool() {
		return nil
	}
	s := &pipeline.Spec{App: r.str(), SLO: r.dur()}
	if n := r.count(minModule); n > 0 {
		s.Modules = make([]pipeline.Module, n)
		for i := range s.Modules {
			m := &s.Modules[i]
			m.ID, m.Name = integer[int](r), r.str()
			m.Pres, m.Subs = ints[int](r), ints[int](r)
			m.Exclusive, m.BranchProb = r.bool(), r.floats(nil)
		}
	}
	return s
}

func appendTrace(b []byte, tr *trace.Trace) []byte {
	if tr == nil {
		return append(b, 0)
	}
	b = appendStr(append(b, 1), tr.Name)
	b = appendInts(b, tr.Arrivals)
	return binary.AppendVarint(b, int64(tr.Duration))
}

func (r *wireReader) trace() *trace.Trace {
	if !r.bool() {
		return nil
	}
	return &trace.Trace{Name: r.str(), Arrivals: ints[time.Duration](r), Duration: r.dur()}
}
