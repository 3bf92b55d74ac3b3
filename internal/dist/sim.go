package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// Distributed-simulation session: the cross-host implementation of
// sched.Transport, carrying the lane-group lockstep exchanges over the same
// frames, opened by the same handshake, as the sweep coordinator's sessions.
//
// Topology is hub and spokes. The hub process runs lane group 0 locally and
// holds one framed connection per remote group; each spoke runs exactly one
// group. One exchange round is:
//
//	spoke g → hub:  seq, kind, its own contribution
//	hub → spoke g:  seq, kind, every contribution in group order
//
// in the binary exchange format of wire.go, as is the handshake before it.
//
// The hub gathers in connection-slot order — a spoke's group index is the
// slot it was handed in the handshake, never self-claimed — merges with its
// own contribution at index 0, and broadcasts the identical reply to every
// spoke. Sequence numbers advance in lockstep on both ends; any skew (a
// replayed frame, a diverged replica exchanging the wrong kind) poisons the
// session instead of merging wrong-but-plausible state. Every read is
// deadlined, so a dead peer surfaces as an abort on every group rather than
// a silent hang at the next rendezvous.

// SimJob ships one distributed simulation's configuration to a spoke. The
// fields are the RAW simgpu.Config knobs — withDefaults is deliberately not
// applied before encoding (its NetDelay/JitterPct sentinels are not
// idempotent), so every replica normalizes the identical raw input exactly
// once. The profile library does not travel: like sweep units, profiles are
// fingerprint-checked at the handshake instead. Neither does the retired
// Shards field, which changes nothing.
type SimJob struct {
	Spec           *pipeline.Spec
	PolicyName     string
	Trace          *trace.Trace
	Seed           int64
	SyncPeriod     time.Duration
	NetDelay       time.Duration
	JitterPct      float64
	FixedWorkers   []int
	Probes         sched.ProbeConfig
	Failures       []sched.Failure
	Lambda         float64
	PriorityWindow time.Duration
}

func jobFromConfig(cfg simgpu.Config) SimJob {
	return SimJob{
		Spec:           cfg.Spec,
		PolicyName:     cfg.PolicyName,
		Trace:          cfg.Trace,
		Seed:           cfg.Seed,
		SyncPeriod:     cfg.SyncPeriod,
		NetDelay:       cfg.NetDelay,
		JitterPct:      cfg.JitterPct,
		FixedWorkers:   cfg.FixedWorkers,
		Probes:         cfg.Probes,
		Failures:       cfg.Failures,
		Lambda:         cfg.Lambda,
		PriorityWindow: cfg.PriorityWindow,
	}
}

func (j SimJob) config() simgpu.Config {
	return simgpu.Config{
		Spec:           j.Spec,
		PolicyName:     j.PolicyName,
		Trace:          j.Trace,
		Seed:           j.Seed,
		SyncPeriod:     j.SyncPeriod,
		NetDelay:       j.NetDelay,
		JitterPct:      j.JitterPct,
		FixedWorkers:   j.FixedWorkers,
		Probes:         j.Probes,
		Failures:       j.Failures,
		Lambda:         j.Lambda,
		PriorityWindow: j.PriorityWindow,
	}
}

// SimOptions parameterizes both ends of a distributed simulation session.
type SimOptions struct {
	// Logf, when set, receives session logging.
	Logf func(format string, args ...any)

	// Seams for this package's tests; zero selects each default.
	// handshakeTimeout and exchangeTimeout replace the constants of the same
	// names.
	handshakeTimeout time.Duration
	exchangeTimeout  time.Duration
}

// exchangeTimeout bounds how long one lane group waits at a rendezvous for its
// peers before declaring the session dead: generously, because a peer may
// legitimately spend a long stretch simulating between exchanges.
const exchangeTimeout = 2 * time.Minute

func (o SimOptions) withDefaults() SimOptions {
	if o.handshakeTimeout <= 0 {
		o.handshakeTimeout = handshakeTimeout
	}
	if o.exchangeTimeout <= 0 {
		o.exchangeTimeout = exchangeTimeout
	}
	return o
}

// simStats are one end's session counters, kept under the session lock and
// logged once when the session closes: the "bytes on the wire" of a
// distributed run, and how long this end sat blocked on its peers.
type simStats struct {
	exchanges          [simKindFinish + 1]uint64 // by kind
	framesTx, framesRx uint64
	bytesTx, bytesRx   uint64
	readWait           time.Duration
}

func (s *simStats) String() string {
	return fmt.Sprintf("exchanges step=%d barrier=%d board=%d scale=%d finish=%d; tx %d frames %d B; rx %d frames %d B; blocked in read %v",
		s.exchanges[simKindStep], s.exchanges[simKindBarrier], s.exchanges[simKindBoard],
		s.exchanges[simKindScale], s.exchanges[simKindFinish],
		s.framesTx, s.bytesTx, s.framesRx, s.bytesRx, s.readWait.Round(time.Millisecond))
}

// simSession is what both ends of a session share: the lockstep sequence
// number, the first error (which poisons every later exchange), the send
// buffer and decoder every exchange reuses, and the counters. Methods of the
// ends are called from the replica's executor only; the lock exists so Abort
// (called from error paths, possibly another goroutine) composes with an
// in-flight exchange.
type simSession struct {
	mu      sync.Mutex
	conns   []*framed // every connection of this end; all closed on failure
	shape   wireShape // every decoded message is checked against it
	timeout time.Duration
	seq     uint64
	err     error
	tx      []byte
	rd      wireReader
	stats   simStats

	// Step, Barrier, Board and Scale replies decode into these every round:
	// the executor is done with a reply before its next exchange (see
	// sched.Transport).
	steps    []sched.StepMsg
	barriers []sched.BarrierMsg
	boards   []sched.BoardMsg
	scales   []sched.ScaleMsg
}

func newSimSession(conns []*framed, shape wireShape, timeout time.Duration) simSession {
	return simSession{
		conns:    conns,
		shape:    shape,
		timeout:  timeout,
		tx:       make([]byte, frameHeaderLen, rxInitial),
		steps:    make([]sched.StepMsg, shape.groups),
		barriers: make([]sched.BarrierMsg, shape.groups),
		boards:   make([]sched.BoardMsg, shape.groups),
		scales:   make([]sched.ScaleMsg, shape.groups),
	}
}

// fail poisons the session (first error wins) and closes every connection so
// blocked peers unblock into an abort instead of timing out. Callers hold
// the lock.
func (s *simSession) fail(err error) error {
	if s.err == nil && err != nil {
		s.err = err
		for _, c := range s.conns {
			c.Close()
		}
	}
	return err
}

func (s *simSession) Abort(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail(err)
}

// summary returns the counters' log line.
func (s *simSession) summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.String()
}

// read receives one frame from c, counting it.
func (s *simSession) read(c *framed) ([]byte, error) {
	start := time.Now()
	payload, err := c.readFrame(s.timeout)
	s.stats.readWait += time.Since(start)
	if err == nil {
		s.stats.framesRx++
		s.stats.bytesRx += uint64(frameHeaderLen + len(payload))
	}
	return payload, err
}

// write sends the frame staged in s.tx to c, counting it.
func (s *simSession) write(c *framed) error {
	err := c.writeFrame(s.tx)
	if err == nil {
		s.stats.framesTx++
		s.stats.bytesTx += uint64(len(s.tx))
	}
	return err
}

// simHub is lane group 0's Transport: it gathers peer contributions over the
// spoke connections (conns[i] serves lane group i+1), merges, and broadcasts.
type simHub struct{ simSession }

// hubExchange runs one gather/broadcast round into reply, which has one slot
// per lane group. The merged reply holds the hub's own contribution at index
// 0 and spoke i's at index i+1 — slot position is authoritative, and a frame
// claiming a different group, the wrong kind, a skewed sequence number, or a
// module outside the session's shape kills the session.
func hubExchange[T any](h *simHub, k *wireKind[T], own T, reply []T) ([]T, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	h.seq++
	h.stats.exchanges[k.kind]++
	reply[0] = own
	for g := 1; g < len(reply); g++ {
		payload, err := h.read(h.conns[g-1])
		if err == nil {
			err = decodeExchange(&h.rd, payload, k, h.seq, reply[g:g+1])
		}
		if err != nil {
			return nil, h.fail(fmt.Errorf("dist: sim %s exchange: lane group %d: %w", simKindName(k.kind), g, err))
		}
		if got := k.group(&reply[g]); int(got) != g {
			return nil, h.fail(fmt.Errorf("dist: sim %s exchange: connection slot %d claims to be lane group %d", simKindName(k.kind), g, got))
		}
		if err := k.check(h.shape, &reply[g], g); err != nil {
			return nil, h.fail(fmt.Errorf("dist: sim %s exchange: lane group %d: %w", simKindName(k.kind), g, err))
		}
	}
	h.tx = appendExchangeHeader(h.tx[:frameHeaderLen], h.seq, k.kind, len(reply))
	for i := range reply {
		h.tx = k.enc(h.tx, reply[i])
	}
	for i, c := range h.conns {
		if err := h.write(c); err != nil {
			return nil, h.fail(fmt.Errorf("dist: sim %s broadcast: lane group %d: %w", simKindName(k.kind), i+1, err))
		}
	}
	return reply, nil
}

func (h *simHub) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	return hubExchange(h, &stepWire, m, h.steps)
}

func (h *simHub) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	return hubExchange(h, &barrierWire, m, h.barriers)
}

func (h *simHub) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	return hubExchange(h, &boardWire, m, h.boards)
}

func (h *simHub) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	return hubExchange(h, &scaleWire, m, h.scales)
}

func (h *simHub) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	return hubExchange(h, &finishWire, m, make([]sched.FinishMsg, h.shape.groups))
}

// simSpoke is a remote lane group's Transport: send the contribution, read
// back the merged broadcast, verify lockstep.
type simSpoke struct{ simSession }

// spokeExchange sends own and decodes the hub's broadcast into reply, which
// has one slot per lane group: exactly that many contributions, each in the
// slot of the group it names and within the session's shape.
func spokeExchange[T any](s *simSpoke, k *wireKind[T], own T, reply []T) ([]T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	s.seq++
	s.stats.exchanges[k.kind]++
	s.tx = k.enc(appendExchangeHeader(s.tx[:frameHeaderLen], s.seq, k.kind, 1), own)
	err := s.write(s.conns[0])
	var payload []byte
	if err == nil {
		payload, err = s.read(s.conns[0])
	}
	if err == nil {
		err = decodeExchange(&s.rd, payload, k, s.seq, reply)
	}
	if err != nil {
		return nil, s.fail(fmt.Errorf("dist: sim %s exchange: %w", simKindName(k.kind), err))
	}
	for g := range reply {
		if got := k.group(&reply[g]); int(got) != g {
			return nil, s.fail(fmt.Errorf("dist: sim %s exchange: hub put lane group %d in slot %d", simKindName(k.kind), got, g))
		}
		if err := k.check(s.shape, &reply[g], g); err != nil {
			return nil, s.fail(fmt.Errorf("dist: sim %s exchange: lane group %d: %w", simKindName(k.kind), g, err))
		}
	}
	return reply, nil
}

func (s *simSpoke) Step(m sched.StepMsg) ([]sched.StepMsg, error) {
	return spokeExchange(s, &stepWire, m, s.steps)
}

func (s *simSpoke) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	return spokeExchange(s, &barrierWire, m, s.barriers)
}

func (s *simSpoke) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	return spokeExchange(s, &boardWire, m, s.boards)
}

func (s *simSpoke) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	return spokeExchange(s, &scaleWire, m, s.scales)
}

func (s *simSpoke) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	return spokeExchange(s, &finishWire, m, make([]sched.FinishMsg, s.shape.groups))
}

// RunSimDistributed runs cfg as a cross-host lockstep simulation: this
// process executes lane group 0 (the hub) and each conns[i] — a connection
// to a peer running ServeSim or ServeConn — executes lane group i+1. The
// result is bit-identical to the same config run in one process (determinism
// invariant #4); every replica independently assembles it, and the hub's
// copy is returned. Any failure — a dead peer, a refused handshake, a
// lockstep divergence — aborts the whole session loudly on every group: the
// function owns conns from the call on and closes every one of them on every
// return, so no spoke is left waiting for a hub that gave up.
//
// cfg is consumed RAW (each replica normalizes it exactly once); it must
// not set Remote.
func RunSimDistributed(cfg simgpu.Config, conns []net.Conn, opts SimOptions) (*simgpu.Result, error) {
	defer func() {
		// On success the close is the goodbye, as in the sweep protocol.
		for _, c := range conns {
			c.Close()
		}
	}()
	opts = opts.withDefaults()
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: distributed simulation needs at least one remote lane group")
	}
	if cfg.Remote != nil {
		return nil, fmt.Errorf("dist: config already carries a lane-group topology; RunSimDistributed assigns its own")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("dist: distributed simulation needs a pipeline spec")
	}
	groups := len(conns) + 1
	if cfg.Lib == nil {
		cfg.Lib = profile.DefaultLibrary()
	}
	job := jobFromConfig(cfg)
	hello := Hello{LibraryFP: cfg.Lib.Fingerprint(), Groups: groups, Job: &job}
	peers := make([]*framed, len(conns))
	for i, conn := range conns {
		hello.Group = i + 1
		f, _, err := openSession(conn, opts.handshakeTimeout, hello)
		if err != nil {
			return nil, fmt.Errorf("%w (lane group %d)", err, hello.Group)
		}
		peers[i] = f
	}
	if opts.Logf != nil {
		opts.Logf("dist: sim session open: %d lane groups (hub + %d remote)", groups, len(conns))
	}

	hub := &simHub{newSimSession(peers, wireShape{mods: cfg.Spec.N(), groups: groups}, opts.exchangeTimeout)}
	cfg.Remote = &simgpu.RemoteTopology{Groups: groups, Group: 0, Transport: hub}
	res, err := simgpu.Run(cfg)
	if opts.Logf != nil {
		opts.Logf("dist: sim session closed: lane group 0/%d: %s", groups, hub.summary())
	}
	if err != nil {
		return nil, fmt.Errorf("dist: distributed simulation: %w", err)
	}
	return res, nil
}

// ServeSim serves one distributed simulation as the lane group assigned in
// the hub's Hello, returning this replica's (bit-identical) result; a peer
// opening a sweep session is refused. The connection is closed when the
// function returns.
func ServeSim(conn net.Conn, opts SimOptions) (*simgpu.Result, error) {
	defer conn.Close()
	opts = opts.withDefaults()
	lib := profile.DefaultLibrary()
	p, err := acceptSession(conn, opts.handshakeTimeout, lib)
	if err != nil {
		return nil, err
	}
	if p.hello.Job == nil {
		return nil, p.refuse("this peer serves simulation lane groups, not sweep units")
	}
	return serveLaneGroup(p, lib, opts)
}

// serveLaneGroup accepts the simulation session p opened and runs its lane
// group to completion. The caller closes the connection, which is also what
// releases the peers should the run fail.
func serveLaneGroup(p *pendingSession, lib *profile.Library, opts SimOptions) (*simgpu.Result, error) {
	h := p.hello
	spoke := &simSpoke{}
	r, err := buildLaneGroup(h, lib, spoke)
	if err != nil {
		return nil, p.refuse(err.Error())
	}
	// Sized by the hello's group count: made only once the job is valid.
	spoke.simSession = newSimSession([]*framed{p.f}, wireShape{mods: h.Job.Spec.N(), groups: h.Groups}, opts.exchangeTimeout)
	if err := p.accept(0); err != nil {
		return nil, err
	}
	if opts.Logf != nil {
		opts.Logf("dist: serving sim lane group %d/%d", h.Group, h.Groups)
	}
	res, err := r.Run()
	if opts.Logf != nil {
		opts.Logf("dist: sim session closed: lane group %d/%d: %s", h.Group, h.Groups, spoke.summary())
	}
	if err != nil {
		return nil, fmt.Errorf("dist: sim lane group %d: %w", h.Group, err)
	}
	return res, nil
}

// buildLaneGroup builds the runner of the lane group a simulation hello
// assigns, over transport tr. It is the whole of a spoke's validation of the
// job: a hello it refuses is refused before the session is accepted, so no
// job value off the wire reaches a running simulation unchecked.
func buildLaneGroup(h Hello, lib *profile.Library, tr sched.Transport) (*simgpu.Runner, error) {
	if h.Groups < 2 || h.Group < 1 || h.Group >= h.Groups {
		return nil, fmt.Errorf("lane group %d/%d out of range", h.Group, h.Groups)
	}
	cfg := h.Job.config()
	cfg.Lib = lib
	cfg.Remote = &simgpu.RemoteTopology{Groups: h.Groups, Group: h.Group, Transport: tr}
	return simgpu.New(cfg)
}
