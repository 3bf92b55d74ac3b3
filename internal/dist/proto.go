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
// Determinism is the package's contract, repo invariants four and five: every
// run's seed derives from (base seed, spec key) alone, and base seed plus
// trace duration travel in the handshake, so a sweep distributed across N
// workers is byte-identical to Engine.Sweep on one machine; and one
// simulation split over N hosts is byte-identical to the same run in one
// process — both enforced by the loopback differential harnesses in this
// package's tests, including under injected crashes and transport faults.
//
// Wire protocol (length-prefixed frames, version-guarded):
//
//	opener → server:  Hello                                  (gob)
//	server → opener:  HelloAck                               (gob)
//
//	sweep session (Hello.Job == nil):
//	coordinator → worker:  WorkUnit*                         (gob)
//	worker → coordinator:  UnitResult*, in any order         (gob)
//
//	simulation session (Hello.Job != nil), per lockstep exchange:
//	spoke g → hub:  seq, kind, its own contribution          (binary, wire.go)
//	hub → spoke g:  seq, kind, every group's contribution    (binary, wire.go)
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
// Version 5: one Hello opens both kinds of session. The bump is needed
// because the new hello is field-compatible with both hellos of version 4 (gob
// matches fields by name and skips what it does not know): a v4 sweep worker
// would read a simulation hello as a sweep hello with seed 0, ack it, and fail
// only at the first binary frame.
const ProtoVersion = 5

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
// warm/cold clusters stay byte-identical. (New fields decode as zero values
// from older peers: gob tolerates missing fields, so the flag is not a version
// break.)
type UnitResult struct {
	Epoch    uint64
	ID       int
	Key      string
	Err      string
	Result   *simgpu.Result
	CacheHit bool
	Elapsed  time.Duration
}
