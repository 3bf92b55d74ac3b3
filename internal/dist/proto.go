// Package dist distributes sweep grids across processes: a coordinator
// partitions a []sweep.Spec grid into work units keyed by Spec.Key(), hands
// them to workers over a small gob protocol on any net.Conn (TCP in
// production, net.Pipe in the loopback test harness), reassigns units when a
// worker disconnects, and merges results back through the owning
// sweep.Engine's cache so warm entries are never recomputed anywhere in the
// cluster.
//
// Determinism is the package's fourth repo invariant: every run's seed
// derives from (base seed, spec key) alone, and base seed plus trace
// duration travel in the handshake, so a sweep distributed across N workers
// is byte-identical to Engine.Sweep on one machine — enforced by the
// loopback differential harness in this package's tests, including under
// injected worker crashes.
//
// Wire protocol (gob frames, one stream per direction, version-guarded):
//
//	coordinator → worker:  Hello, then WorkUnit*
//	worker → coordinator:  HelloAck, then UnitResult* (any order)
//
// Closing the connection is the shutdown signal; there is no goodbye frame.
// Every dispatch carries the coordinator's sweep epoch (the term/epoch guard
// of the raft/paxos lineage): results from a previous sweep, a reassigned
// unit, or a confused worker are identified and dropped instead of merged.
package dist

import (
	"time"

	"pard/internal/simgpu"
	"pard/internal/sweep"
)

// ProtoVersion guards the wire format. Bump it whenever message layouts,
// the spec key grammar, or simulation semantics change incompatibly; peers
// with a different version refuse the handshake instead of silently
// producing mismatched results.
//
// Version 2: the default execution engine flipped from the classic global
// event heap to the per-module lane engine, and the spec key grammar
// gained a mandatory |eng= marker (plus RunOpts.Engine on the wire). A v1
// peer would silently simulate the same keys on the old engine — the
// exact divergence the version gate exists to refuse.
//
// Version 3: every message now travels as a length-prefixed gob frame (see
// frame.go) instead of a bare gob stream, the spec key grammar gained a
// conditional |topo= marker for lane-group placement, and the protocol
// gained the distributed-simulation session (SimHello/SimAck plus the
// lockstep exchange envelopes). A v2 peer would misparse the length prefix
// as gob type wiring.
//
// Version 4: the lockstep exchanges of a simulation session left gob for
// the binary codec of wire.go, the barrier message gained the sender's lane
// heads, and the per-iteration step exchange is gone. A v3 peer would send
// gob envelopes after the handshake and wait for a step exchange that never
// comes. The sweep protocol's frames did not change, but the version is one
// number for the whole package.
//
// Removing the classic engine (and RunOpts.Engine / simgpu.Config.Engine with
// it) did not bump the version, because no v4 peer can be served a different
// result: gob drops the vanished field in both directions, an absent field
// always meant the lane engine, a v4 coordinator's classic unit carries a
// |eng=classic key that this worker's own derivation (|eng=lane) refuses per
// unit (runUnit's key check), and no hub ever shipped a classic config —
// RunSimDistributed refused it before the handshake.
const ProtoVersion = 4

// Hello opens a coordinator→worker stream. It carries everything a worker
// needs to reproduce the coordinator's derivation of per-run seeds and
// traces — the sweep base seed and the trace duration — plus the
// fingerprint of the coordinator's model-profile library: profiles do not
// travel in unit keys, so a peer simulating different latency curves must
// be refused, not silently merged.
type Hello struct {
	Proto         int
	BaseSeed      int64
	TraceDuration time.Duration
	LibraryFP     uint64
}

// HelloAck completes the handshake. Capacity advertises how many units the
// worker runs concurrently; the coordinator keeps at most that many
// outstanding on the connection. LibraryFP echoes the worker's own library
// fingerprint so both sides can reject the mismatch with a clear error. A
// non-empty Err means the worker refuses to serve (e.g. its cache dir broke)
// and tells the coordinator why instead of just dropping the stream.
type HelloAck struct {
	Proto     int
	Capacity  int
	LibraryFP uint64
	Err       string
}

// WorkUnit assigns one grid point. Key is the coordinator's full cache key
// ("run|" + Spec.Key()); the worker re-derives it from Spec and refuses the
// unit on mismatch, turning silent key-grammar drift between versions into
// a loud error. Epoch identifies the sweep the assignment belongs to.
type WorkUnit struct {
	Epoch uint64
	ID    int
	Key   string
	Spec  sweep.Spec
}

// UnitResult reports one finished unit. Exactly one of Result and Err is
// set. Epoch and ID echo the assignment so the coordinator can drop stale
// or duplicate completions. CacheHit marks a result the worker served from
// its own warm cache (Lookup, no execution) — the coordinator surfaces the
// distinction through Stats so "zero recompute cluster-wide" is observable,
// and keeps warm results out of its straggler latency estimate. Elapsed is
// the worker-measured execution time (zero for cache hits); both fields are
// telemetry only and never participate in result bytes, so mixed warm/cold
// clusters stay byte-identical. (New fields decode as zero values from older
// peers: gob tolerates missing fields, so the flag is not a version break.)
type UnitResult struct {
	Epoch    uint64
	ID       int
	Key      string
	Err      string
	Result   *simgpu.Result
	CacheHit bool
	Elapsed  time.Duration
}
