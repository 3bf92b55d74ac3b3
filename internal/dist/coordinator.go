package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
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
	// WaitForWorkers makes a sweep with an empty cluster block for workers
	// to join (listen-mode deployments) instead of failing fast (the
	// dial-mode default, where losing every worker is an error).
	WaitForWorkers bool
	// HandshakeTimeout bounds the Hello/HelloAck exchange on a new
	// connection (default 10s; < 0 disables).
	HandshakeTimeout time.Duration
	// Logf, when set, receives dispatch/requeue/worker-lifecycle logging.
	Logf func(format string, args ...any)
	// SpeculateAfter tunes straggler speculation: once a dispatched unit's
	// age exceeds this duration it is queued for one speculative copy on
	// another worker, first valid result wins (per-key seed derivation makes
	// the copies byte-identical, so dropping the loser is safe — the same
	// guard that already absorbs requeue races). Zero (the default) adapts
	// the threshold from observed unit latency (3× the running mean, with a
	// floor, once enough units completed); a negative value disables
	// speculation entirely.
	SpeculateAfter time.Duration
	// OnUnitDone, when set, is invoked after each remotely executed unit is
	// merged (outside the coordinator lock). This is the distributed
	// counterpart of sweep.Config.OnProgress, which remote execution
	// bypasses (cache installs are not local work). Dropped duplicates of
	// speculated units are not merges and are never reported.
	OnUnitDone func(UnitDone)
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
// was reassigned after a worker loss, Speculated > 0 that at least one
// straggling unit was re-dispatched.
type Stats struct {
	Dispatched int // units sent to workers (reassignments + speculation included)
	Completed  int // unit results accepted (dropped duplicates excluded)
	Requeued   int // units reassigned after a worker was lost
	// Speculated counts speculative copies QUEUED for straggling units; a
	// copy whose original resolves first (or that finds no eligible worker)
	// never dispatches, so the per-worker Speculative dispatch counts can
	// sum below this.
	Speculated    int
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
	Completed   int // results accepted from this worker
	CacheHits   int // of those, served from the worker's warm cache
	Speculative int // speculative duplicate assignments sent to this worker
}

// workerConn is one registered worker. The dispatch loop is the connection's
// only writer and the read loop its only reader, so neither needs a lock on
// the stream; outstanding/dead are guarded by the coordinator mutex.
type workerConn struct {
	id          int
	conn        net.Conn
	f           *framed
	capacity    int
	outstanding map[int]bool
	dead        bool
}

// sweepState is the dispatch state of the active sweep.
type sweepState struct {
	epoch    uint64
	units    []WorkUnit
	pending  []int // unit IDs awaiting assignment
	results  map[int]*simgpu.Result
	failures map[int]string
	aborted  bool // stop dispatching: a unit failed or the context fired
	ctxErr   error
	// dispatchedAt is the last dispatch time of each unresolved unit — the
	// age the speculation scan compares against the straggler threshold.
	dispatchedAt map[int]time.Time
	// speculated marks units already granted their one speculative copy.
	speculated map[int]bool
	// latencySum/latencyN estimate the mean dispatch→result latency of
	// executed (non-cache-hit) units, feeding the adaptive threshold.
	latencySum time.Duration
	latencyN   int
	// installs tracks cache merges running off the coordinator lock (disk
	// I/O must not serialize dispatch); Sweep drains it before returning
	// so a finished sweep is fully visible to the next one's Lookup.
	installs sync.WaitGroup
}

// remaining reports how many units are still unresolved.
func (st *sweepState) remaining() int { return len(st.units) - len(st.results) - len(st.failures) }

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
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	c := &Coordinator{cfg: cfg, workers: map[int]*workerConn{}}
	c.stats.PerWorker = map[int]WorkerStats{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Speculation scan cadence and adaptive-threshold guards. The floor keeps a
// noisy estimate over very short units from re-dispatching everything, and
// the warmup keeps the mean from being read before it means anything.
// Spurious speculation is never a correctness risk — duplicate results are
// byte-identical and dropped — only wasted work.
const (
	speculateTick         = 25 * time.Millisecond
	speculateAdaptiveMin  = 250 * time.Millisecond
	speculateWarmupUnits  = 3
	speculateAdaptiveMult = 3
)

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
	f, capacity, err := openSession(conn, c.cfg.HandshakeTimeout, Hello{
		LibraryFP: ecfg.Library.Fingerprint(), BaseSeed: ecfg.BaseSeed, TraceDuration: ecfg.TraceDuration,
	})
	if err != nil {
		conn.Close()
		return err
	}
	w := &workerConn{conn: conn, f: f, capacity: max(capacity, 1), outstanding: map[int]bool{}}

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
		if v, ok := c.cfg.Engine.Lookup(units[id].Key); ok {
			if r, isRun := v.(*simgpu.Result); isRun {
				results[id] = r
				continue
			}
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
// results, a unit fails, the context fires, or the cluster empties.
func (c *Coordinator) runUnits(ctx context.Context, units []WorkUnit, pending []int, results map[int]*simgpu.Result) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dist: coordinator is closed")
	}
	c.epoch++
	st := &sweepState{
		epoch:        c.epoch,
		units:        units,
		pending:      pending,
		results:      results,
		failures:     map[int]string{},
		dispatchedAt: map[int]time.Time{},
		speculated:   map[int]bool{},
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
	if c.cfg.SpeculateAfter >= 0 {
		stopSpec := make(chan struct{})
		defer close(stopSpec)
		go c.speculationLoop(st, stopSpec)
	}
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
	for {
		if st.remaining() == 0 {
			break
		}
		outstanding := 0
		for _, w := range c.workers {
			outstanding += len(w.outstanding)
		}
		if st.aborted && outstanding == 0 {
			break
		}
		// Closed-coordinator wins over empty-cluster: Close clears the
		// worker set, and "no workers remain" would misdiagnose a shutdown.
		if c.closed {
			return errors.New("dist: coordinator closed mid-sweep")
		}
		if !st.aborted && outstanding == 0 && len(c.workers) == 0 {
			if !c.cfg.WaitForWorkers {
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

// speculationLoop periodically scans the active sweep for straggling units
// until the sweep finishes or stop closes.
func (c *Coordinator) speculationLoop(st *sweepState, stop <-chan struct{}) {
	t := time.NewTicker(speculateTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.closed || c.st != st {
			c.mu.Unlock()
			return
		}
		c.speculateLocked(st)
		c.mu.Unlock()
	}
}

// speculateLocked (c.mu held) queues one speculative copy of every
// dispatched unit older than the straggler threshold. The copy goes to the
// back of pending, so first dispatches are never delayed, and nextUnit
// refuses to hand it to a worker already running the unit. First valid
// result wins; the loser is dropped by the outstanding/duplicate guards.
func (c *Coordinator) speculateLocked(st *sweepState) {
	if st.aborted {
		return
	}
	threshold := c.cfg.SpeculateAfter
	if threshold == 0 {
		if st.latencyN < speculateWarmupUnits {
			return
		}
		threshold = speculateAdaptiveMult * st.latencySum / time.Duration(st.latencyN)
		threshold = max(threshold, speculateAdaptiveMin)
	}
	now := time.Now()
	queued := false
	for id, at := range st.dispatchedAt {
		if st.speculated[id] || now.Sub(at) < threshold {
			continue
		}
		if _, done := st.results[id]; done {
			continue
		}
		if _, failed := st.failures[id]; failed {
			continue
		}
		if slices.Contains(st.pending, id) {
			// A copy is already queued (e.g. speculation re-armed after a
			// worker loss before the first copy dispatched).
			continue
		}
		st.speculated[id] = true
		st.pending = append(st.pending, id)
		c.stats.Speculated++
		queued = true
		c.logf("dist: unit %d straggling (%v > %v), queueing speculative copy",
			id, now.Sub(at).Round(time.Millisecond), threshold.Round(time.Millisecond))
	}
	if queued {
		// Only wake the dispatch loops when there is new work; an
		// unconditional broadcast would storm every blocked worker each tick
		// for the whole sweep.
		c.cond.Broadcast()
	}
}

// nextUnit blocks until a unit is assignable to w (or w is gone / the
// coordinator closes, reporting false). Units the worker is already running
// are skipped: a speculative copy must land on a different worker to help.
func (c *Coordinator) nextUnit(w *workerConn) (WorkUnit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || w.dead {
			return WorkUnit{}, false
		}
		if st := c.st; st != nil && !st.aborted && len(w.outstanding) < w.capacity {
			for i := 0; i < len(st.pending); {
				id := st.pending[i]
				if _, done := st.results[id]; done {
					// Resolved while queued (a speculative copy whose
					// original came through): drop it for everyone.
					st.pending = append(st.pending[:i], st.pending[i+1:]...)
					continue
				}
				if w.outstanding[id] {
					i++
					continue
				}
				st.pending = append(st.pending[:i], st.pending[i+1:]...)
				duplicate := c.outstandingElsewhere(w, id)
				w.outstanding[id] = true
				if _, ok := st.dispatchedAt[id]; !ok {
					// A speculative copy keeps the original dispatch time:
					// the unit really has been pending that long, and a
					// reset would feed near-zero samples into the adaptive
					// latency estimate when the original completes.
					st.dispatchedAt[id] = time.Now()
				}
				c.stats.Dispatched++
				if duplicate {
					ws := c.stats.PerWorker[w.id]
					ws.Speculative++
					c.stats.PerWorker[w.id] = ws
				}
				return st.units[id], true
			}
		}
		c.cond.Wait()
	}
}

// dispatchLoop is w's connection writer: it feeds assignable units to the
// worker until the worker leaves or the coordinator closes.
func (c *Coordinator) dispatchLoop(w *workerConn) {
	for {
		u, ok := c.nextUnit(w)
		if !ok {
			return
		}
		if err := w.f.send(u); err != nil {
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
		if err := w.f.recv(&r, 0); err != nil {
			c.dropWorker(w, err)
			return
		}
		c.complete(w, r)
	}
}

// complete merges one result. The epoch/outstanding guards drop anything
// stale: results for a previous sweep, for a unit already reassigned after
// this worker was (wrongly) presumed lost, or for units never assigned.
// With speculation the same unit can be legitimately outstanding on two
// workers at once; the first valid result wins and the loser — by per-key
// seed derivation a byte-identical copy — is dropped here.
func (c *Coordinator) complete(w *workerConn, r UnitResult) {
	c.mu.Lock()
	st := c.st
	if st == nil || r.Epoch != st.epoch || !w.outstanding[r.ID] {
		c.mu.Unlock()
		c.logf("dist: dropping stale result (worker %d, unit %d, epoch %d)", w.id, r.ID, r.Epoch)
		return
	}
	delete(w.outstanding, r.ID)
	_, succeeded := st.results[r.ID]
	_, failed := st.failures[r.ID]
	if succeeded || failed {
		// The speculative race was lost (or won — either way a copy of this
		// unit was merged first, as a result or as the recorded failure):
		// not a completion, just freed capacity. Checking failures too keeps
		// a unit from landing in both maps and double-counting Done.
		c.cond.Broadcast()
		c.mu.Unlock()
		c.logf("dist: dropping duplicate result for unit %d from worker %d (speculation race resolved)", r.ID, w.id)
		return
	}
	c.stats.Completed++
	ws := c.stats.PerWorker[w.id]
	ws.Completed++
	if at, ok := st.dispatchedAt[r.ID]; ok && r.Err == "" && !r.CacheHit {
		// Executed units feed the adaptive straggler estimate; cache hits
		// return in microseconds and would drag it toward zero.
		st.latencySum += time.Since(at)
		st.latencyN++
	}
	switch {
	case r.Err != "":
		st.failures[r.ID] = r.Err
		st.aborted = true
	case r.Result == nil:
		st.failures[r.ID] = "worker sent neither result nor error"
		st.aborted = true
	case r.Key != st.units[r.ID].Key:
		// The echoed key is an integrity check: a worker computing under a
		// different key computed under a different seed.
		st.failures[r.ID] = fmt.Sprintf("worker %d echoed key %q for a unit assigned as %q", w.id, r.Key, st.units[r.ID].Key)
		st.aborted = true
	default:
		if r.CacheHit {
			c.stats.RemoteHits++
			ws.CacheHits++
		}
		st.results[r.ID] = r.Result
		delete(st.dispatchedAt, r.ID)
		// Merge into the shared cache off the coordinator lock (Install
		// gob-encodes to disk when a cache dir is configured; dispatch
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
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.cfg.OnUnitDone != nil {
		c.cfg.OnUnitDone(ud)
	}
}

// outstandingElsewhere reports whether id is outstanding on a live worker
// other than w (c.mu held).
func (c *Coordinator) outstandingElsewhere(w *workerConn, id int) bool {
	for _, other := range c.workers {
		if other != w && other.outstanding[id] {
			return true
		}
	}
	return false
}

// dropWorker removes w after a connection failure, reassigning its
// outstanding units (lowest unit ID first, for reproducible logs).
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
		for id := range w.outstanding {
			if _, done := st.results[id]; done {
				continue
			}
			if c.outstandingElsewhere(w, id) {
				// A copy is still running on a live worker; it covers this
				// unit, no requeue needed. Re-arm speculation so that copy
				// gets a backup of its own if it too turns out to straggle.
				delete(st.speculated, id)
				continue
			}
			if slices.Contains(st.pending, id) {
				// Already queued (a speculative copy not yet dispatched):
				// requeueing would double-queue the unit.
				delete(st.dispatchedAt, id)
				delete(st.speculated, id)
				continue
			}
			requeued = append(requeued, id)
		}
		sort.Ints(requeued)
		st.pending = append(st.pending, requeued...)
		for _, id := range requeued {
			// The unit is no longer running anywhere: its age is meaningless
			// until redispatch, so keep it out of the speculation scan — and
			// re-arm its speculative copy, since the dispatch it covered died
			// with the worker.
			delete(st.dispatchedAt, id)
			delete(st.speculated, id)
		}
		c.stats.Requeued += len(requeued)
	}
	w.outstanding = map[int]bool{}
	c.cond.Broadcast()
	c.mu.Unlock()
	w.conn.Close()
	c.logf("dist: lost worker %d (%v), requeued %d units", w.id, cause, len(requeued))
}
