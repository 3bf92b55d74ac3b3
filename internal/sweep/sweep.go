// Package sweep executes independent simulation runs in parallel while
// preserving sequential semantics: a sweep over a grid of run specs at a
// fixed base seed produces byte-identical results no matter how many
// workers execute it (including one).
//
// The engine owns three responsibilities that together make parallel
// fan-out safe for the evaluation harness:
//
//   - Determinism: every run and every synthesized trace receives a seed
//     derived from the base seed plus the artifact's stable cache key
//     (DeriveSeed), never from scheduling order or shared RNG streams.
//   - Caching: results and traces are memoized under their cache key with
//     single-flight semantics, so grid points shared between figures (e.g.
//     Figs. 8-10 reuse the same 48 runs) compute exactly once even when
//     requested concurrently.
//   - Bounded concurrency: at most Workers runs execute at a time
//     (runtime.NumCPU() by default); results come back in input order with
//     serialized progress callbacks.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"pard/internal/profile"
)

// DeriveSeed maps a base seed and a stable key to a distinct per-artifact
// seed. The derivation is pure (FNV-1a over base and key), so the same
// (base, key) pair yields the same seed in every process and under any
// execution order, while different keys get independent RNG streams —
// grid points no longer share one stream through the base seed.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", base, key)
	s := int64(h.Sum64() &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// Progress reports one executed artifact — a simulation run ("run|…"
// keys) or a trace synthesis ("trace|…" keys). Callbacks are serialized;
// Done counts executed artifacts and Total counts unique artifacts
// discovered so far (both monotone). Cache hits are not work and are
// never reported.
type Progress struct {
	Done    int
	Total   int
	Key     string
	Err     error
	Elapsed time.Duration
}

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds concurrent runs. <= 0 selects runtime.NumCPU();
	// 1 gives fully sequential execution.
	Workers int
	// BaseSeed is the root of all derived seeds (default 1).
	BaseSeed int64
	// TraceDuration is the virtual length of synthesized traces.
	TraceDuration time.Duration
	// Library provides model profiles (default: the shared
	// profile.Default()).
	Library *profile.Library
	// OnProgress, when set, is invoked (serially) after each job finishes.
	OnProgress func(Progress)
	// CacheDir, when set, persists finished runs and traces to disk (binary
	// entries keyed by the stable cache keys, scoped by base seed and trace
	// duration) so repeated invocations reuse finished grid points across
	// processes. Disk hits fill the in-memory cache without counting as
	// executed work.
	CacheDir string
	// Logf, when set, receives cache-maintenance logging — notably corrupt
	// disk entries being quarantined. Nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.TraceDuration <= 0 {
		c.TraceDuration = 300 * time.Second
	}
	c.Library = cmp.Or(c.Library, profile.Default())
	return c
}

// flight is one in-progress or finished cache entry (single-flight).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// finishedFlight wraps an already-computed value as a completed flight.
func finishedFlight(val any) *flight {
	f := &flight{done: make(chan struct{}), val: val}
	close(f.done)
	return f
}

// Engine runs jobs on a bounded worker pool with a single-flight cache.
// All methods are safe for concurrent use.
type Engine struct {
	cfg     Config
	sem     chan struct{}
	disk    *diskCache
	diskErr error

	mu          sync.Mutex
	cache       map[string]*flight
	distributor Distributor

	// pmu serializes progress callbacks and guards the counters, separate
	// from mu so a callback may call back into the engine.
	pmu       sync.Mutex
	submitted int
	finished  int
}

// New returns an engine for the config.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		cache: map[string]*flight{},
	}
	if cfg.CacheDir != "" {
		d, err := newDiskCache(cfg.CacheDir, cfg.BaseSeed, fmt.Sprintf("dur=%v", cfg.TraceDuration), cfg.Logf)
		if err != nil {
			e.diskErr = err
		} else {
			e.disk = d
		}
	}
	return e
}

// DiskError reports why the configured cache directory could not be opened
// (nil when unconfigured or healthy).
func (e *Engine) DiskError() error { return e.diskErr }

// DiskStats returns disk-cache lookup counters (zeros when unconfigured).
func (e *Engine) DiskStats() (hits, misses int) {
	if e.disk == nil {
		return 0, 0
	}
	return e.disk.stats()
}

// Config returns the effective engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// BaseSeed returns the engine's root seed.
func (e *Engine) BaseSeed() int64 { return e.cfg.BaseSeed }

// SeedFor derives the stable seed for an artifact key.
func (e *Engine) SeedFor(key string) int64 { return DeriveSeed(e.cfg.BaseSeed, key) }

// peek returns the existing flight for key, if any, without creating one.
func (e *Engine) peek(key string) (*flight, bool) {
	e.mu.Lock()
	f, ok := e.cache[key]
	e.mu.Unlock()
	return f, ok
}

// lookup is Lookup for any key; spec vets a run's disk hit (see do).
func (e *Engine) lookup(key string, spec *Spec) (any, bool) {
	e.mu.Lock()
	f, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		select {
		case <-f.done:
			if f.err != nil {
				return nil, false
			}
			return f.val, true
		default:
			return nil, false
		}
	}
	if e.disk == nil {
		return nil, false
	}
	v, ok := e.disk.load(key, spec)
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	if f, raced := e.cache[key]; raced {
		// A computation started while we read disk; its (identical, by
		// determinism) value wins if finished, else this stays a miss.
		e.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				return f.val, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
	e.cache[key] = finishedFlight(v)
	e.mu.Unlock()
	return v, true
}

// Install records an externally computed value for key — the merge path for
// results produced by remote workers. The value enters the in-memory cache
// and, when configured, the disk cache, exactly as if the engine had
// computed it; installs are not work and never count as progress. An
// existing entry (finished or in flight) wins: per-key seed derivation makes
// both values byte-identical, so dropping the duplicate is safe.
func (e *Engine) Install(key string, val any) {
	e.mu.Lock()
	if _, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return
	}
	e.cache[key] = finishedFlight(val)
	e.mu.Unlock()
	if e.disk != nil {
		e.disk.store(key, val)
	}
}

// Do returns the cached value for key, computing it with fn on first use.
// fn receives the seed derived from the key; concurrent callers with the
// same key share a single execution and its result (errors included).
func (e *Engine) Do(key string, fn func(seed int64) (any, error)) (any, error) {
	return e.do(key, nil, fn)
}

// do is Do with spec, when not nil, the run key's spec: a disk hit that does
// not fit it is quarantined and the run recomputed. The key names the spec
// only as a string, so a well-formed entry for another pipeline's shape is
// caught here, not in the decoder.
func (e *Engine) do(key string, spec *Spec, fn func(seed int64) (any, error)) (any, error) {
	e.mu.Lock()
	if f, ok := e.cache[key]; ok {
		e.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.cache[key] = f
	e.mu.Unlock()
	if e.disk != nil {
		if v, ok := e.disk.load(key, spec); ok {
			// A disk hit is not work: it fills the in-memory cache without
			// counting toward progress, like any other cache hit.
			f.val = v
			close(f.done)
			return f.val, nil
		}
	}
	e.pmu.Lock()
	e.submitted++
	e.pmu.Unlock()
	start := time.Now()
	f.val, f.err = fn(e.SeedFor(key))
	close(f.done)
	if f.err == nil && e.disk != nil {
		e.disk.store(key, f.val)
	}
	e.report(key, f.err, time.Since(start))
	return f.val, f.err
}

// Job is one unit of work in a generic sweep: a stable cache key plus the
// function computing its value from the key-derived seed.
type Job[T any] struct {
	Key string
	Run func(seed int64) (T, error)

	spec *Spec // a run's, to vet a disk hit against (see Engine.do)
}

// All executes jobs on the engine's bounded pool and returns their values
// in input order. Duplicate keys (within the batch or versus earlier runs)
// share one execution through the cache. The first failure cancels the
// batch: queued jobs that have not started are skipped instead of draining
// the whole grid, and the returned error is the first real (non-cancel)
// failure in input order.
func All[T any](e *Engine, jobs []Job[T]) ([]T, error) {
	return AllCtx(context.Background(), e, jobs)
}

// AllCtx is All with cancellation plumbed through the worker pool: when ctx
// is canceled — by the caller, or internally as soon as any job fails — jobs
// that have not yet claimed a worker slot return ctx's error without
// running. Jobs already executing finish (simulations are not preemptible)
// and still enter the cache, so a retried sweep resumes where this one
// stopped.
func AllCtx[T any](ctx context.Context, e *Engine, jobs []Job[T]) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job[T]) {
			defer wg.Done()
			var v any
			var err error
			if f, ok := e.peek(j.Key); ok {
				// Already cached or in flight: wait without holding a
				// worker slot, so duplicate keys don't shrink the pool.
				select {
				case <-f.done:
					v, err = f.val, f.err
				case <-ctx.Done():
					// Both cases can be ready at once; prefer the flight's
					// real outcome so the recorded error (and hence which
					// failure a sweep reports) never depends on which select
					// case won the race.
					select {
					case <-f.done:
						v, err = f.val, f.err
					default:
						errs[i] = ctx.Err()
						return
					}
				}
			} else {
				select {
				case e.sem <- struct{}{}:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
				// Both select cases can be ready at once; re-check so a slot
				// freed by the failing job is never used to start new work.
				if cerr := ctx.Err(); cerr != nil {
					<-e.sem
					errs[i] = cerr
					return
				}
				v, err = e.do(j.Key, j.spec, func(seed int64) (any, error) { return j.Run(seed) })
				if err != nil {
					// Cancel before releasing the slot: waiters observe the
					// cancellation no later than the slot becoming free.
					cancel()
				}
				<-e.sem
			}
			if err == nil {
				out[i] = v.(T)
			} else {
				cancel()
			}
			errs[i] = err
		}(i, j)
	}
	wg.Wait()
	// Deterministic failure reporting: every job's outcome is collected
	// before any is judged, and the failure with the lowest input index is
	// the one reported — concurrent failures at several grid points always
	// surface the same error, no matter which job's pool worker finished
	// first. Cancellations are only a failure's echo (or the caller's, when
	// no job failed at all) and are reported only when nothing real failed.
	var firstCancel error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if firstCancel == nil {
				firstCancel = err
			}
		default:
			return out, err
		}
	}
	return out, firstCancel
}

// report delivers one progress callback under the engine lock, keeping
// callbacks serialized and counters consistent.
func (e *Engine) report(key string, err error, elapsed time.Duration) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	e.finished++
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(Progress{
			Done: e.finished, Total: e.submitted,
			Key: key, Err: err, Elapsed: elapsed,
		})
	}
}
