package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pard/internal/simgpu"
	"pard/internal/sweep"
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Engine is the local sweep engine results merge through: units warm in
	// its cache (memory or disk) are never dispatched, and every remote
	// result is installed back into it. Its base seed and trace duration
	// are the handshake parameters workers configure themselves from.
	Engine *sweep.Engine
	// Logf, when set, receives dispatch/requeue/worker-lifecycle logging.
	Logf func(format string, args ...any)
	// OnUnitDone, when set, is invoked after each remotely executed unit is
	// merged (outside the coordinator lock). This is the distributed
	// counterpart of sweep.Config.OnProgress, which remote execution
	// bypasses (cache installs are not local work). Dropped duplicates of
	// endgame copies are not merges and are never reported.
	OnUnitDone func(UnitDone)

	// handshakeTimeout, a seam for this package's tests, replaces the
	// constant of that name when positive.
	handshakeTimeout time.Duration
}

// UnitDone describes one merged remote unit for CoordinatorConfig.OnUnitDone:
// Done/Total count the current sweep's units, Err is empty on success,
// Elapsed is the worker-measured execution time (zero for cache hits), and
// Worker identifies which worker served it.
type UnitDone struct {
	Done     int
	Total    int
	Key      string
	Err      string
	Elapsed  time.Duration
	CacheHit bool
	Worker   int
}

// Stats counts coordinator activity; Requeued > 0 means at least one unit
// was reassigned after a worker loss, Duplicated > 0 that the endgame rule
// put at least one unit on a second worker. Over sweeps that succeed with
// nothing requeued, Dispatched − Duplicated == Completed: every unit is
// dispatched once, and only the first result of its copies is accepted.
type Stats struct {
	Dispatched    int // units sent to workers (reassignments and duplicates included)
	Completed     int // unit results accepted (dropped duplicates excluded)
	Requeued      int // units reassigned after a worker was lost
	Duplicated    int // copies dispatched of a unit already running on another worker
	LocalHits     int // units resolved from the coordinator's own cache, never dispatched
	RemoteHits    int // accepted results a worker served from its warm cache
	WorkersJoined int
	WorkersLost   int // workers dropped on connection failure (Close excluded)
	// PerWorker breaks activity down by worker ID (entries survive the
	// worker's departure).
	PerWorker map[int]WorkerStats
}

// WorkerStats counts one worker's activity.
type WorkerStats struct {
	Completed int // results accepted from this worker
	CacheHits int // of those, served from the worker's warm cache
}

// unitRef names one assignment: a unit of one sweep. A worker's slots are
// keyed by it, so a result that arrives after its sweep has moved on — the
// loser of an endgame race, a unit of an aborted sweep — still frees the
// slot it held.
type unitRef struct {
	epoch uint64
	id    int
}

// workerConn is one registered worker. The dispatch loop is the connection's
// only writer and the read loop its only reader, so neither needs a lock on
// the stream; outstanding/dead are guarded by the coordinator mutex.
type workerConn struct {
	id          int
	conn        net.Conn
	f           *framed
	capacity    int
	outstanding map[unitRef]bool // held assignments; true marks an endgame copy
	dead        bool
}

// sweepState is the dispatch state of the active sweep.
type sweepState struct {
	epoch    uint64
	units    []WorkUnit
	pending  []int // unit IDs awaiting assignment, running nowhere
	results  map[int]*simgpu.Result
	failures map[int]string
	aborted  bool // stop dispatching: a unit failed or the context fired
	ctxErr   error
	// installs tracks cache merges running off the coordinator lock (disk
	// I/O must not serialize dispatch); Sweep drains it before returning
	// so a finished sweep is fully visible to the next one's Lookup.
	installs sync.WaitGroup
}

// remaining reports how many units are still unresolved.
func (st *sweepState) remaining() int { return len(st.units) - len(st.results) - len(st.failures) }

// resolved reports whether unit id has merged, as a result or a failure.
func (st *sweepState) resolved(id int) bool {
	_, ok := st.results[id]
	_, failed := st.failures[id]
	return ok || failed
}

// Coordinator partitions sweep grids into work units and drives a dynamic
// set of workers: workers may join at any time (even mid-sweep, stealing
// pending units) and leave at any time (their outstanding units are
// reassigned). It implements sweep.Distributor. All methods are safe for
// concurrent use; sweeps themselves are serialized.
type Coordinator struct {
	cfg CoordinatorConfig

	sweepMu sync.Mutex // one sweep at a time

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[int]*workerConn
	listeners []net.Listener
	nextID    int
	epoch     uint64
	st        *sweepState
	closed    bool
	stats     Stats
}

// NewCoordinator returns a coordinator merging through cfg.Engine.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Engine == nil {
		panic("dist: CoordinatorConfig.Engine is required")
	}
	if cfg.handshakeTimeout <= 0 {
		cfg.handshakeTimeout = handshakeTimeout
	}
	c := &Coordinator{cfg: cfg, workers: map[int]*workerConn{}}
	c.stats.PerWorker = map[int]WorkerStats{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// logf forwards to the configured logger.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// AddConn performs the handshake on conn and registers it as a worker. The
// conn may come from dialing a listening worker, from accepting a worker
// that dialed in, or from net.Pipe in tests — the protocol is the same.
func (c *Coordinator) AddConn(conn net.Conn) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		conn.Close()
		return errors.New("dist: coordinator is closed")
	}
	ecfg := c.cfg.Engine.Config()
	f, capacity, err := openSession(conn, c.cfg.handshakeTimeout, Hello{
		LibraryFP: ecfg.Library.Fingerprint(), BaseSeed: ecfg.BaseSeed, TraceDuration: ecfg.TraceDuration,
	})
	if err != nil {
		conn.Close()
		return err
	}
	w := &workerConn{conn: conn, f: f, capacity: max(capacity, 1), outstanding: map[unitRef]bool{}}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return errors.New("dist: coordinator is closed")
	}
	c.nextID++
	w.id = c.nextID
	c.workers[w.id] = w
	c.stats.WorkersJoined++
	c.cond.Broadcast()
	c.mu.Unlock()
	c.logf("dist: worker %d joined (capacity %d)", w.id, w.capacity)

	go c.readLoop(w)
	go c.dispatchLoop(w)
	return nil
}

// Listen accepts worker connections until the listener closes (Close closes
// it). It blocks, like http.Serve; run it in a goroutine.
func (c *Coordinator) Listen(l net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.Close()
		return errors.New("dist: coordinator is closed")
	}
	c.listeners = append(c.listeners, l)
	c.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		// Handshake concurrently: one slow or half-open peer must not
		// stall every other worker trying to join behind it.
		go func() {
			if err := c.AddConn(conn); err != nil {
				c.logf("dist: rejected worker connection: %v", err)
			}
		}()
	}
}

// WaitWorkers blocks until at least n workers are registered (or ctx fires,
// or the coordinator closes).
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) < n {
		if c.closed {
			return errors.New("dist: coordinator is closed")
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dist: waiting for %d workers (%d joined): %w", n, len(c.workers), err)
		}
		c.cond.Wait()
	}
	return nil
}

// Workers reports the current cluster size.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Stats returns a snapshot of the activity counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.PerWorker = make(map[int]WorkerStats, len(c.stats.PerWorker))
	for id, ws := range c.stats.PerWorker {
		out.PerWorker[id] = ws
	}
	return out
}

// Close shuts the coordinator down: listeners stop accepting, worker
// connections close (workers exit cleanly on EOF), and any blocked Sweep or
// WaitWorkers returns.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ws := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		w.dead = true // not a loss: suppress dropWorker accounting
		ws = append(ws, w)
	}
	c.workers = map[int]*workerConn{}
	ls := c.listeners
	c.listeners = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, w := range ws {
		w.conn.Close()
	}
}

// Sweep implements sweep.Distributor: it resolves the grid across the
// cluster and returns results in input order, byte-identical to
// Engine.Sweep on the same grid. Units warm in the engine's cache are never
// dispatched; remote results are installed back into it. The first unit
// failure aborts dispatch (mirroring the engine's early-cancel) and is
// returned for the lowest-numbered failed unit.
func (c *Coordinator) Sweep(ctx context.Context, specs []sweep.Spec) ([]*simgpu.Result, error) {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()

	// Partition: one unit per distinct key, first-appearance order.
	unitOf := map[string]int{}
	indexFor := make([]int, len(specs))
	var units []WorkUnit
	for i, s := range specs {
		key := "run|" + s.Key()
		id, ok := unitOf[key]
		if !ok {
			id = len(units)
			unitOf[key] = id
			units = append(units, WorkUnit{ID: id, Key: key, Spec: s})
		}
		indexFor[i] = id
	}

	// Merge-in phase one: warm units resolve from the local cache.
	results := make(map[int]*simgpu.Result, len(units))
	var pending []int
	for id := range units {
		if r, ok := c.cfg.Engine.Lookup(units[id].Spec); ok {
			results[id] = r
			continue
		}
		pending = append(pending, id)
	}
	c.mu.Lock()
	c.stats.LocalHits += len(results)
	c.mu.Unlock()
	c.logf("dist: sweep of %d specs: %d units (%d cached, %d to run)",
		len(specs), len(units), len(results), len(pending))

	if len(pending) > 0 {
		if err := c.runUnits(ctx, units, pending, results); err != nil {
			return nil, err
		}
	}

	out := make([]*simgpu.Result, len(specs))
	for i, id := range indexFor {
		out[i] = results[id]
	}
	return out, nil
}

// runUnits drives the cluster until every pending unit is resolved into
// results, a unit fails, the context fires, or the cluster empties. An
// aborted sweep returns at once: units still running are the workers'
// business, and their late results free their slots when they arrive.
func (c *Coordinator) runUnits(ctx context.Context, units []WorkUnit, pending []int, results map[int]*simgpu.Result) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dist: coordinator is closed")
	}
	c.epoch++
	st := &sweepState{
		epoch:    c.epoch,
		units:    units,
		pending:  pending,
		results:  results,
		failures: map[int]string{},
	}
	for i := range st.units {
		st.units[i].Epoch = st.epoch
	}
	c.st = st
	c.cond.Broadcast()
	c.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		if c.st == st {
			st.aborted = true
			st.ctxErr = ctx.Err()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	// Drain off-lock cache merges before returning: a caller observing the
	// sweep as done must find every result via Lookup (warm restarts
	// dispatch nothing).
	defer st.installs.Wait()

	c.mu.Lock()
	defer func() {
		c.st = nil
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	emptyLogged := false
	for st.remaining() > 0 && !st.aborted {
		// Closed-coordinator wins over empty-cluster: Close clears the
		// worker set, and "no workers remain" would misdiagnose a shutdown.
		if c.closed {
			return errors.New("dist: coordinator closed mid-sweep")
		}
		if len(c.workers) == 0 {
			// A coordinator that listens waits for workers to join; one
			// that only dialed has lost every worker it will ever have.
			if len(c.listeners) == 0 {
				return fmt.Errorf("dist: no workers remain (%d of %d units incomplete)", st.remaining(), len(st.units))
			}
			if !emptyLogged {
				c.logf("dist: cluster empty, waiting for workers to rejoin (%d of %d units incomplete)",
					st.remaining(), len(st.units))
				emptyLogged = true
			}
		} else {
			emptyLogged = false
		}
		c.cond.Wait()
	}
	if st.ctxErr != nil {
		return st.ctxErr
	}
	if len(st.failures) > 0 {
		ids := make([]int, 0, len(st.failures))
		for id := range st.failures {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return fmt.Errorf("dist: unit %d (%s) failed: %s", ids[0], st.units[ids[0]].Key, st.failures[ids[0]])
	}
	return nil
}

// nextUnit blocks until w has a free slot and a unit to fill it (or w is
// gone / the coordinator closes, reporting false). Pending units go first, in
// order. With none pending, the endgame rule applies: a worker holding nothing
// gets a copy of an unresolved unit running on another worker, so a sweep
// finishes whatever holds up the original — a slow worker or a silent one. No
// clock is involved; the first valid result wins and complete drops the
// loser, a byte-identical copy by per-key seeding.
func (c *Coordinator) nextUnit(w *workerConn) (WorkUnit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || w.dead {
			return WorkUnit{}, false
		}
		if st := c.st; st != nil && !st.aborted && len(w.outstanding) < w.capacity {
			id, dup := -1, false
			if len(st.pending) > 0 {
				id, st.pending = st.pending[0], st.pending[1:]
			} else if len(w.outstanding) == 0 {
				id = c.endgameUnit(st)
				dup = id >= 0
			}
			if id >= 0 {
				w.outstanding[unitRef{st.epoch, id}] = dup
				c.stats.Dispatched++
				if dup {
					c.stats.Duplicated++
				}
				return st.units[id], true
			}
		}
		c.cond.Wait()
	}
}

// endgameUnit (c.mu held) picks the unit the endgame rule copies: the lowest
// unresolved unit of st running on a live worker. It returns -1 if there is
// none, or while any copy is still running. Workers cannot cancel a unit, so
// a losing copy runs to its end; one at a time, copies never take more than
// one slot from the originals or from the next sweep.
func (c *Coordinator) endgameUnit(st *sweepState) int {
	best := -1
	for _, w := range c.workers {
		for ref, dup := range w.outstanding {
			if dup {
				return -1
			}
			if ref.epoch == st.epoch && !st.resolved(ref.id) && (best < 0 || ref.id < best) {
				best = ref.id
			}
		}
	}
	return best
}

// dispatchLoop is w's connection writer: it feeds assignable units to the
// worker until the worker leaves or the coordinator closes.
func (c *Coordinator) dispatchLoop(w *workerConn) {
	buf := make([]byte, frameHeaderLen, unitCap)
	for {
		u, ok := c.nextUnit(w)
		if !ok {
			return
		}
		buf = appendWorkUnit(buf[:frameHeaderLen], u)
		if err := w.f.writeFrame(buf); err != nil {
			c.dropWorker(w, fmt.Errorf("send unit %d: %w", u.ID, err))
			return
		}
	}
}

// readLoop is w's connection reader: it merges unit results until the
// stream breaks.
func (c *Coordinator) readLoop(w *workerConn) {
	for {
		var r UnitResult
		payload, err := w.f.readFrame(0)
		if err == nil {
			err = decodeUnitResult(payload, &r)
		}
		if err != nil {
			c.dropWorker(w, err)
			return
		}
		c.complete(w, r)
	}
}

// complete merges one result. A result for an assignment w holds frees its
// slot, whatever else becomes of it. It merges only if it belongs to the
// active sweep and is the first of its unit's copies to arrive; the rest are
// dropped: results of a previous or aborted sweep, the losers of an endgame
// race, and anything never assigned to w.
func (c *Coordinator) complete(w *workerConn, r UnitResult) {
	c.mu.Lock()
	ref := unitRef{r.Epoch, r.ID}
	if _, held := w.outstanding[ref]; !held {
		c.mu.Unlock()
		c.logf("dist: dropping unassigned result (worker %d, unit %d, epoch %d)", w.id, r.ID, r.Epoch)
		return
	}
	delete(w.outstanding, ref)
	c.cond.Broadcast()
	st := c.st
	if st == nil || r.Epoch != st.epoch || st.resolved(r.ID) {
		// Expected, not logged: every endgame copy but one loses. Checking
		// failures too (resolved) keeps a unit from landing in both maps and
		// double-counting Done.
		c.mu.Unlock()
		return
	}
	c.stats.Completed++
	ws := c.stats.PerWorker[w.id]
	ws.Completed++
	if why := refusal(w.id, st.units[r.ID], r); why != "" {
		st.failures[r.ID] = why
		st.aborted = true
	} else {
		if r.CacheHit {
			c.stats.RemoteHits++
			ws.CacheHits++
		}
		st.results[r.ID] = r.Result
		// Merge into the shared cache off the coordinator lock (Install
		// encodes to disk when a cache dir is configured; dispatch
		// must not serialize on that): later sweeps (local or
		// distributed, this process or — via a shared cache dir — any
		// other) never recompute this unit.
		key, res := st.units[r.ID].Key, r.Result
		st.installs.Add(1)
		go func() {
			defer st.installs.Done()
			c.cfg.Engine.Install(key, res)
		}()
	}
	c.stats.PerWorker[w.id] = ws
	done, total := len(st.results)+len(st.failures), len(st.units)
	ud := UnitDone{
		Done: done, Total: total,
		Key: st.units[r.ID].Key, Err: st.failures[r.ID],
		Elapsed: r.Elapsed, CacheHit: r.CacheHit, Worker: w.id,
	}
	c.mu.Unlock()
	if c.cfg.OnUnitDone != nil {
		c.cfg.OnUnitDone(ud)
	}
}

// refusal returns why worker's result r cannot merge as unit u's, or "".
// The echoed key is an integrity check: a worker computing under a different
// key computed under a different seed. A result is checked against the unit
// before it is merged, since the experiments index its per-module slices
// without looking.
func refusal(worker int, u WorkUnit, r UnitResult) string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Result == nil:
		return "worker sent neither result nor error"
	case r.Key != u.Key:
		return fmt.Sprintf("worker %d echoed key %q for a unit assigned as %q", worker, r.Key, u.Key)
	}
	if err := u.Spec.Fits(r.Result); err != nil {
		return fmt.Sprintf("worker %d sent a result that does not fit the unit: %v", worker, err)
	}
	return ""
}

// dropWorker removes w after a connection failure and requeues each unit of
// the active sweep it held that no live worker still runs (lowest unit ID
// first, for reproducible logs); a unit with an endgame copy elsewhere needs
// no requeue.
func (c *Coordinator) dropWorker(w *workerConn, cause error) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	delete(c.workers, w.id)
	c.stats.WorkersLost++
	var requeued []int
	if st := c.st; st != nil && !st.aborted {
	held:
		for ref := range w.outstanding {
			if ref.epoch != st.epoch || st.resolved(ref.id) {
				continue
			}
			for _, other := range c.workers {
				if _, ok := other.outstanding[ref]; ok {
					continue held
				}
			}
			requeued = append(requeued, ref.id)
		}
		sort.Ints(requeued)
		st.pending = append(st.pending, requeued...)
		c.stats.Requeued += len(requeued)
	}
	w.outstanding = map[unitRef]bool{}
	c.cond.Broadcast()
	c.mu.Unlock()
	w.conn.Close()
	c.logf("dist: lost worker %d (%v), requeued %d units", w.id, cause, len(requeued))
}
