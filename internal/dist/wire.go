package dist

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pard/internal/metrics"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
	"pard/internal/wire"
)

// Every frame of a dist session is written in the binary codec of package
// wire: the handshake that opens a session, a sweep session's work units and
// results, and the lockstep exchanges of a simulation session. Encoders
// append to a caller-supplied buffer and decoders read from a byte slice, so
// a steady-state exchange allocates nothing.
//
// Exchange codec: the lockstep phase of a distributed-simulation session. The
// five message kinds are by-value structs of integers, durations, booleans
// and float slices, and a session makes thousands of exchanges. One exchange
// frame, in either direction, is
//
//	seq uvarint | kind byte | count uvarint | count × message
//
// with count 1 from a spoke (its own contribution) and count = groups from
// the hub (every contribution, in group order). The decoder fails closed as
// package wire's Reader does; unknown kinds and a count other than the
// expected arity are errors too, and each poisons the session.
//
// A session then checks every decoded message against its simulation's
// shape (wireShape) before the engine sees it, since the engine indexes its
// modules with what the peers send.

// Exchange kind tags on the wire; they mirror the lane engine's Transport
// exchanges (Step, Barrier, Board, Scale, Finish) so lockstep violations
// carry a readable name.
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
	b = wire.AppendBool(b, m.CtrlOK)
	b = binary.AppendVarint(b, int64(m.LaneAt))
	return wire.AppendBool(b, m.LaneOK)
}

func readStep(r *wire.Reader, m *sched.StepMsg) {
	m.Group = r.Int32()
	m.CtrlAt, m.CtrlOK = r.Dur(), r.Bool()
	m.LaneAt, m.LaneOK = r.Dur(), r.Bool()
}

func appendBarrier(b []byte, m sched.BarrierMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Group))
	b = binary.AppendVarint(b, int64(m.CtrlAt))
	b = wire.AppendBool(b, m.CtrlOK)
	b = binary.AppendVarint(b, int64(m.LaneAt))
	b = wire.AppendBool(b, m.LaneOK)
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
		b = wire.AppendBool(b, it.Drop)
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
func readBarrier(r *wire.Reader, m *sched.BarrierMsg) {
	m.Group = r.Int32()
	m.CtrlAt, m.CtrlOK = r.Dur(), r.Bool()
	m.LaneAt, m.LaneOK = r.Dur(), r.Bool()
	n := r.Count(minWirePost)
	m.Posts = slices.Grow(m.Posts[:0], n)
	for i := 0; i < n; i++ {
		m.Posts = append(m.Posts, sched.WirePost{At: r.Dur(), Src: r.Int32(), Dst: r.Int32(), Req: r.Uint()})
	}
	n = r.Count(minWireIntent)
	m.Intents = slices.Grow(m.Intents[:0], n)
	for i := 0; i < n; i++ {
		m.Intents = append(m.Intents, sched.WireIntent{At: r.Dur(), Mod: r.Int32(), Req: r.Uint(), Drop: r.Bool()})
	}
	n = r.Count(minWireCharge)
	m.Charges = slices.Grow(m.Charges[:0], n)
	for i := 0; i < n; i++ {
		m.Charges = append(m.Charges, sched.WireCharge{Mod: r.Int32(), Req: r.Uint(), GPU: r.Dur(), Q: r.Dur(), W: r.Dur(), D: r.Dur()})
	}
	n = r.Count(minWireMerge)
	m.Merges = slices.Grow(m.Merges[:0], n)
	for i := 0; i < n; i++ {
		m.Merges = append(m.Merges, sched.WireMergeReset{At: r.Dur(), Mod: r.Int32(), Req: r.Uint(), Expected: r.Int32()})
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
		b = wire.AppendFloats(b, row.State.BatchWait)
		b = wire.AppendFloat(b, row.State.InputRate)
		b = wire.AppendFloat(b, row.State.Throughput)
		b = wire.AppendBool(b, row.State.Overloaded)
		b = binary.AppendVarint(b, int64(row.State.WCL))
	}
	return b
}

// board decodes into m, reusing the capacity of m's rows and of each row's
// BatchWait samples: the executor publishes the rows to its state board,
// which copies them, before the next exchange (see sched.Transport).
func readBoard(r *wire.Reader, m *sched.BoardMsg) {
	m.Group = r.Int32()
	n := r.Count(minBoardRow)
	m.Rows = slices.Grow(m.Rows[:0], n)[:n]
	for i := range m.Rows {
		row := &m.Rows[i]
		row.Mod = r.Int32()
		row.State.QueueDelay = r.Dur()
		row.State.ProfiledDur = r.Dur()
		row.State.BatchWait = r.Floats(row.State.BatchWait)
		row.State.InputRate = r.Float()
		row.State.Throughput = r.Float()
		row.State.Overloaded = r.Bool()
		row.State.WCL = r.Dur()
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
func readScale(r *wire.Reader, m *sched.ScaleMsg) {
	m.Group = r.Int32()
	n := r.Count(minScaleRow)
	m.Rows = slices.Grow(m.Rows[:0], n)[:n]
	for i := range m.Rows {
		m.Rows[i] = sched.WireScaleRow{Mod: r.Int32(), Desired: r.Int32()}
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
			b = metrics.AppendSeries(b, s)
		}
		b = wire.AppendFloats(b, rep.WaitSamples)
	}
	return b
}

// finish decodes into freshly allocated reports: the caller assembles its
// result from them.
func readFinish(r *wire.Reader, m *sched.FinishMsg) {
	m.Group = r.Int32()
	m.LaneFired = r.Uint()
	m.Reports = nil
	if n := r.Count(minReport); n > 0 {
		m.Reports = make([]sched.ModuleReport, n)
	}
	for i := range m.Reports {
		rep := &m.Reports[i]
		rep.Mod = r.Int32()
		rep.Peak = wire.Integer[int](r)
		rep.QueueDelay, rep.Load, rep.Mode = metrics.ReadSeries(r), metrics.ReadSeries(r), metrics.ReadSeries(r)
		rep.Budget, rep.Remain = metrics.ReadSeries(r), metrics.ReadSeries(r)
		rep.WaitSamples = r.Floats(nil)
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
	dec   func(*wire.Reader, *T)
	group func(*T) int32
	check func(wireShape, *T, int) error // the message is from the lane group given
}

var (
	stepWire = wireKind[sched.StepMsg]{simKindStep, appendStep, readStep,
		func(m *sched.StepMsg) int32 { return m.Group },
		func(wireShape, *sched.StepMsg, int) error { return nil }}
	barrierWire = wireKind[sched.BarrierMsg]{simKindBarrier, appendBarrier, readBarrier,
		func(m *sched.BarrierMsg) int32 { return m.Group }, wireShape.checkBarrier}
	boardWire = wireKind[sched.BoardMsg]{simKindBoard, appendBoard, readBoard,
		func(m *sched.BoardMsg) int32 { return m.Group },
		func(s wireShape, m *sched.BoardMsg, g int) error {
			return ownedRows(s, "board row Mod", m.Rows, func(r *sched.WireBoardRow) int32 { return r.Mod }, g)
		}}
	scaleWire = wireKind[sched.ScaleMsg]{simKindScale, appendScale, readScale,
		func(m *sched.ScaleMsg) int32 { return m.Group },
		func(s wireShape, m *sched.ScaleMsg, g int) error {
			return ownedRows(s, "scale row Mod", m.Rows, func(r *sched.WireScaleRow) int32 { return r.Mod }, g)
		}}
	finishWire = wireKind[sched.FinishMsg]{simKindFinish, appendFinish, readFinish,
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
func decodeExchange[T any](r *wire.Reader, payload []byte, k *wireKind[T], seq uint64, into []T) error {
	*r = wire.NewReader(payload)
	gotSeq, gotKind := r.Uint(), r.Byte()
	if r.Err() == nil && (gotSeq != seq || gotKind != k.kind) {
		return fmt.Errorf("lockstep divergence: peer sent %s seq %d while the session is at %s seq %d",
			simKindName(gotKind), gotSeq, simKindName(k.kind), seq)
	}
	n := r.Count(minWireMsg)
	if r.Err() == nil && n != len(into) {
		return fmt.Errorf("frame carries %d contributions, want %d", n, len(into))
	}
	for i := range into {
		if r.Err() != nil {
			break
		}
		k.dec(r, &into[i])
	}
	if err := r.Done("exchange frame"); err != nil {
		return fmt.Errorf("%s: %w", simKindName(k.kind), err)
	}
	return nil
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
//	        JitterPct | FixedWorkers | Probes | Failures | Lambda |
//	        PriorityWindow
//	ack:    proto | LibraryFP | Capacity | Err
//
// with a spec App | SLO | modules (ID | Name | Pres | Subs | Exclusive |
// BranchProb), a trace Name | Arrivals | Duration, and the probe and failure
// fields in their declaration order. The job carries no scaling settings:
// they are constants of the scheduling core, and a job scales exactly when
// its FixedWorkers is nil.

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
	rd := wire.NewReader(payload)
	r := &rd
	*h = Hello{Proto: wire.Integer[int](r)}
	if r.Err() == nil && h.Proto != ProtoVersion {
		return versionMismatch(h.Proto)
	}
	h.LibraryFP = r.Uint()
	h.BaseSeed = r.Int()
	h.TraceDuration = r.Dur()
	h.Groups, h.Group = wire.Integer[int](r), wire.Integer[int](r)
	if r.Bool() {
		h.Job = readJob(r)
	}
	return r.Done("hello frame")
}

func appendHelloAck(b []byte, a HelloAck) []byte {
	b = binary.AppendVarint(b, int64(a.Proto))
	b = binary.AppendUvarint(b, a.LibraryFP)
	b = binary.AppendVarint(b, int64(a.Capacity))
	return wire.AppendStr(b, a.Err)
}

// decodeHelloAck decodes an ack payload into a, as decodeHello does a hello.
func decodeHelloAck(payload []byte, a *HelloAck) error {
	rd := wire.NewReader(payload)
	r := &rd
	*a = HelloAck{Proto: wire.Integer[int](r)}
	if r.Err() == nil && a.Proto != ProtoVersion {
		return versionMismatch(a.Proto)
	}
	a.LibraryFP = r.Uint()
	a.Capacity = wire.Integer[int](r)
	a.Err = r.Str()
	return r.Done("hello ack frame")
}

func appendJob(b []byte, j *SimJob) []byte {
	b = appendSpec(b, j.Spec)
	b = wire.AppendStr(b, j.PolicyName)
	b = trace.AppendTrace(b, j.Trace)
	b = binary.AppendVarint(b, j.Seed)
	b = binary.AppendVarint(b, int64(j.SyncPeriod))
	b = binary.AppendVarint(b, int64(j.NetDelay))
	b = wire.AppendFloat(b, j.JitterPct)
	b = wire.AppendInts(b, j.FixedWorkers)
	b = appendProbes(b, j.Probes)
	b = appendFailures(b, j.Failures)
	b = wire.AppendFloat(b, j.Lambda)
	return binary.AppendVarint(b, int64(j.PriorityWindow))
}

func readJob(r *wire.Reader) *SimJob {
	j := &SimJob{Spec: readSpec(r), PolicyName: r.Str(), Trace: trace.ReadTrace(r), Seed: r.Int()}
	j.SyncPeriod, j.NetDelay = r.Dur(), r.Dur()
	j.JitterPct = r.Float()
	j.FixedWorkers = wire.Ints[int](r)
	j.Probes = readProbes(r)
	j.Failures = readFailures(r)
	j.Lambda = r.Float()
	j.PriorityWindow = r.Dur()
	return j
}

func appendProbes(b []byte, p sched.ProbeConfig) []byte {
	b = wire.AppendBool(b, p.QueueDelay)
	b = wire.AppendBool(b, p.LoadFactor)
	b = wire.AppendBool(b, p.Budget)
	b = wire.AppendBool(b, p.Decomposition)
	return binary.AppendVarint(b, int64(p.SampleEvery))
}

func readProbes(r *wire.Reader) (p sched.ProbeConfig) {
	p.QueueDelay, p.LoadFactor, p.Budget, p.Decomposition = r.Bool(), r.Bool(), r.Bool(), r.Bool()
	p.SampleEvery = wire.Integer[int](r)
	return p
}

func appendFailures(b []byte, fs []sched.Failure) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.AppendVarint(b, int64(f.At))
		b = binary.AppendVarint(b, int64(f.Module))
		b = binary.AppendVarint(b, int64(f.Count))
	}
	return b
}

func readFailures(r *wire.Reader) []sched.Failure {
	n := r.Count(minFailure)
	if n == 0 {
		return nil
	}
	fs := make([]sched.Failure, n)
	for i := range fs {
		fs[i] = sched.Failure{At: r.Dur(), Module: wire.Integer[int](r), Count: wire.Integer[int](r)}
	}
	return fs
}

func appendSpec(b []byte, s *pipeline.Spec) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = wire.AppendStr(append(b, 1), s.App)
	b = binary.AppendVarint(b, int64(s.SLO))
	b = binary.AppendUvarint(b, uint64(len(s.Modules)))
	for i := range s.Modules {
		m := &s.Modules[i]
		b = binary.AppendVarint(b, int64(m.ID))
		b = wire.AppendStr(b, m.Name)
		b = wire.AppendInts(b, m.Pres)
		b = wire.AppendInts(b, m.Subs)
		b = wire.AppendBool(b, m.Exclusive)
		b = wire.AppendFloats(b, m.BranchProb)
	}
	return b
}

func readSpec(r *wire.Reader) *pipeline.Spec {
	if !r.Bool() {
		return nil
	}
	s := &pipeline.Spec{App: r.Str(), SLO: r.Dur()}
	if n := r.Count(minModule); n > 0 {
		s.Modules = make([]pipeline.Module, n)
		for i := range s.Modules {
			m := &s.Modules[i]
			m.ID, m.Name = wire.Integer[int](r), r.Str()
			m.Pres, m.Subs = wire.Ints[int](r), wire.Ints[int](r)
			m.Exclusive, m.BranchProb = r.Bool(), r.Floats(nil)
		}
	}
	return s
}

// Sweep codec: a sweep session's WorkUnit and UnitResult, each alone in its
// frame, in the handshake's format.
//
//	unit:    Epoch | ID | Key | spec
//	spec:    App | pipeline? | Kind | Policy | probes | Lambda | SLOOverride |
//	         WindowSize | FixedWorkers | SteadyRate | SteadyDur | failures
//	result:  Epoch | ID | Key | Err | result? | CacheHit | Elapsed
//
// with the pipeline, probes and failures as in a simulation job and the
// result in simgpu.AppendResult's form.

// unitCap is room for a work unit frame that its encoding rarely outgrows.
const unitCap = frameHeaderLen + 512

func appendWorkUnit(b []byte, u WorkUnit) []byte {
	b = binary.AppendUvarint(b, u.Epoch)
	b = binary.AppendVarint(b, int64(u.ID))
	b = wire.AppendStr(b, u.Key)
	s := &u.Spec
	b = wire.AppendStr(b, s.App)
	b = appendSpec(b, s.Pipeline)
	b = wire.AppendStr(b, string(s.Kind))
	b = wire.AppendStr(b, s.Policy)
	o := &s.Opts
	b = appendProbes(b, o.Probes)
	b = wire.AppendFloat(b, o.Lambda)
	b = binary.AppendVarint(b, int64(o.SLOOverride))
	b = binary.AppendVarint(b, int64(o.WindowSize))
	b = wire.AppendInts(b, o.FixedWorkers)
	b = wire.AppendFloat(b, o.SteadyRate)
	b = binary.AppendVarint(b, int64(o.SteadyDur))
	return appendFailures(b, o.Failures)
}

func decodeWorkUnit(payload []byte, u *WorkUnit) error {
	r := wire.NewReader(payload)
	*u = WorkUnit{Epoch: r.Uint(), ID: wire.Integer[int](&r), Key: r.Str()}
	s := &u.Spec
	s.App, s.Pipeline = r.Str(), readSpec(&r)
	s.Kind, s.Policy = trace.Kind(r.Str()), r.Str()
	s.Opts = sweep.RunOpts{Probes: readProbes(&r), Lambda: r.Float(), SLOOverride: r.Dur(), WindowSize: r.Dur()}
	s.Opts.FixedWorkers = wire.Ints[int](&r)
	s.Opts.SteadyRate, s.Opts.SteadyDur = r.Float(), r.Dur()
	s.Opts.Failures = readFailures(&r)
	return r.Done("work unit frame")
}

func appendUnitResult(b []byte, u UnitResult) []byte {
	b = binary.AppendUvarint(b, u.Epoch)
	b = binary.AppendVarint(b, int64(u.ID))
	b = wire.AppendStr(b, u.Key)
	b = wire.AppendStr(b, u.Err)
	if u.Result == nil {
		b = append(b, 0)
	} else {
		b = simgpu.AppendResult(append(b, 1), u.Result)
	}
	b = wire.AppendBool(b, u.CacheHit)
	return binary.AppendVarint(b, int64(u.Elapsed))
}

// decodeUnitResult decodes a result payload into u. A result that does not
// fit its own collector is an error here; whether it fits the unit it answers
// is the coordinator's check.
func decodeUnitResult(payload []byte, u *UnitResult) error {
	r := wire.NewReader(payload)
	*u = UnitResult{Epoch: r.Uint(), ID: wire.Integer[int](&r), Key: r.Str(), Err: r.Str()}
	if r.Bool() {
		u.Result = simgpu.ReadResult(&r)
	}
	u.CacheHit, u.Elapsed = r.Bool(), r.Dur()
	return r.Done("unit result frame")
}
