// Package dist is the cluster fabric: it spreads work across processes over
// any net.Conn (TCP in production, net.Pipe in the loopback test harness), in
// two kinds of session that share one framing (frame.go) and one handshake
// (session.go).
//
// A sweep session distributes a grid: a coordinator partitions a []sweep.Spec
// grid into work units keyed by Spec.Key(), hands them to workers, reassigns
// units when a worker disconnects, and merges results back through the owning
// sweep.Engine's cache so warm entries are never recomputed anywhere in the
// cluster. A simulation session distributes one run: a hub and its spokes each
// execute one lane group of the same simulation in lockstep (sim.go).
//
// Determinism is the package's contract, repo invariants three and four: every
// run's seed derives from (base seed, spec key) alone, and base seed plus
// trace duration travel in the handshake, so a sweep distributed across N
// workers is byte-identical to Engine.Sweep on one machine; and one
// simulation split over N hosts is byte-identical to the same run in one
// process — both enforced by the loopback differential harnesses in this
// package's tests, including under injected crashes and transport faults.
//
// Wire protocol (length-prefixed frames, version-guarded, every frame in
// wire.go's binary codec):
//
//	opener → server:  Hello
//	server → opener:  HelloAck
//
//	sweep session (Hello.Job == nil):
//	coordinator → worker:  WorkUnit*
//	worker → coordinator:  UnitResult*, in any order
//
//	simulation session (Hello.Job != nil), per lockstep exchange:
//	spoke g → hub:  seq, kind, its own contribution
//	hub → spoke g:  seq, kind, every group's contribution
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

// ProtoVersion guards the wire format: message layouts, the spec key grammar
// and simulation semantics. Bump it whenever one of them changes
// incompatibly; peers with a different version refuse each other at the
// handshake instead of silently producing mismatched results. It is one number
// for the whole package.
//
// Version 6: the handshake left gob for wire.go's binary codec, which opens
// with the version itself. A v5 peer's gob hello or ack reads here as some
// other version and is refused as one; this side's binary hello or ack fails
// a v5 peer's gob decoder, which drops the connection.
//
// Version 7: the job lost BatchFrac, QueueWindow, WaitReservoir and
// EstimatorSamples, whose one value each is now a constant of the
// scheduling core. A v6 hello or ack is refused at its version, before its
// job is read.
//
// Version 8: the job lost its seven scaling fields. The scaling engine's
// settings are constants of the scheduling core, and a job scales exactly
// when its FixedWorkers is nil. A v7 hello or ack is refused at its version,
// before its job is read.
//
// Version 9: a sweep session's UnitResult carries the fixed-size collector
// (send-time buckets, a latency histogram and a record digest) instead of one
// record per request. Both layouts gob-decode without error, so a v8 peer
// would merge empty window series; it is refused at its version instead.
//
// Version 10: a sweep session's WorkUnit and UnitResult left gob for the
// binary codec, the result in simgpu.AppendResult's form, so no frame of any
// session is gob. A v9 peer's gob unit or result would fail this side's
// decoder and drop the connection mid-sweep; it is refused at its version
// in the handshake instead, on both ends.
const ProtoVersion = 10

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
// distinction through Stats so "zero recompute cluster-wide" is observable.
// Elapsed is the worker-measured execution time (zero for cache hits); both
// fields are telemetry only and never participate in result bytes, so mixed
// warm/cold clusters stay byte-identical. The frame carries every field in
// order (wire.go), so a changed layout is a ProtoVersion bump.
type UnitResult struct {
	Epoch    uint64
	ID       int
	Key      string
	Err      string
	Result   *simgpu.Result
	CacheHit bool
	Elapsed  time.Duration
}
