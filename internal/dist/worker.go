package dist

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"

	"pard/internal/sweep"
)

// WorkerConfig parameterizes the serving side of one connection.
type WorkerConfig struct {
	// Workers bounds concurrent unit executions and is advertised to the
	// coordinator as the connection's capacity (<= 0 selects
	// runtime.NumCPU()).
	Workers int
	// CacheDir, when set, persists finished artifacts locally (point it at
	// a shared volume to turn it into a cluster-wide artifact store).
	CacheDir string
	// Logf, when set, receives per-unit logging.
	Logf func(format string, args ...any)

	// Seams for this package's tests; zero selects each default.
	// handshakeTimeout replaces the constant of that name. crashAfterUnits
	// abruptly closes the connection after that many results have been sent,
	// to prove reassignment keeps sweeps byte-identical. unitDelay stalls
	// every unit execution (not cache hits) by that long before it runs, to
	// prove endgame re-dispatch finishes a sweep around a straggler; a unit
	// still held when the connection ends is given up, as nothing could
	// report it, so a straggler does not run on into later tests.
	handshakeTimeout time.Duration
	crashAfterUnits  int
	unitDelay        time.Duration
}

// handshakeTimeout bounds the hello/ack round trip of every session, and how
// long Join redials a coordinator that is not listening yet.
const handshakeTimeout = 10 * time.Second

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.handshakeTimeout <= 0 {
		cfg.handshakeTimeout = handshakeTimeout
	}
	return cfg
}

// errInjectedCrash is returned by ServeConn when the crashAfterUnits fault
// seam fired.
var errInjectedCrash = errors.New("dist: injected worker crash")

// ServeConn serves whichever session the peer opens on conn. A sweep
// coordinator gets a pull/run/push loop until it closes the connection (the
// shutdown signal, reported as nil); the sweep engine executing its units is
// built from the coordinator's Hello — base seed and trace duration — so
// every seed and trace derives exactly as it would have locally on the
// coordinator. A simulation hub gets its lane group run to completion, as
// under ServeSim; the replica's result is dropped — it is bit-identical to
// the hub's, which is the one presented to the user.
func ServeConn(conn net.Conn, cfg WorkerConfig) error {
	defer conn.Close()
	cfg = cfg.withDefaults()
	p, err := acceptSession(conn, cfg.handshakeTimeout)
	if err != nil {
		return err
	}
	if p.hello.Job != nil {
		_, err := serveLaneGroup(p, SimOptions{Logf: cfg.Logf}.withDefaults())
		return err
	}
	h, f := p.hello, p.f
	eng := sweep.New(sweep.Config{
		Workers:       cfg.Workers,
		BaseSeed:      h.BaseSeed,
		TraceDuration: h.TraceDuration,
		CacheDir:      cfg.CacheDir,
		Logf:          cfg.Logf,
	})
	if err := eng.DiskError(); err != nil {
		// Refuse with the reason: the coordinator should see "cache dir
		// broke on the worker", not a dropped stream.
		return p.refuse(err.Error())
	}
	if err := p.accept(eng.Config().Workers); err != nil {
		return err
	}
	if cfg.Logf != nil {
		cfg.Logf("dist: serving coordinator (seed=%d dur=%v capacity=%d)",
			h.BaseSeed, h.TraceDuration, eng.Config().Workers)
	}

	var (
		sendMu  sync.Mutex
		sent    int
		crashed bool
		wg      sync.WaitGroup
	)
	// Enforce the advertised capacity locally too: a coordinator is
	// expected to keep at most Capacity units outstanding, but a buggy or
	// hostile one must not be able to oversubscribe this worker. The read
	// loop takes a slot before it spawns a unit, so the excess waits in the
	// socket, not decoded in this process.
	sem := make(chan struct{}, cfg.Workers)
	stop := make(chan struct{}) // closed when the read loop ends
	sendResult := func(r UnitResult) {
		sendMu.Lock()
		defer sendMu.Unlock()
		if crashed {
			return
		}
		if err := f.writeFrame(appendUnitResult(make([]byte, frameHeaderLen), r)); err != nil {
			return // reader will see the broken stream too
		}
		sent++
		if cfg.crashAfterUnits > 0 && sent >= cfg.crashAfterUnits {
			crashed = true
			conn.Close() // abrupt: in-flight assignments die with the conn
		}
	}
	for {
		var u WorkUnit
		payload, err := f.readFrame(0)
		if err == nil {
			err = decodeWorkUnit(payload, &u)
		}
		if err != nil {
			close(stop)
			wg.Wait()
			sendMu.Lock()
			wasCrash := crashed
			sendMu.Unlock()
			if wasCrash {
				return fmt.Errorf("%w (after %d units)", errInjectedCrash, sent)
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator hung up: normal shutdown
			}
			return fmt.Errorf("dist: worker receive: %w", err)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(u WorkUnit) {
			defer wg.Done()
			defer func() { <-sem }()
			sendResult(runUnit(eng, u, cfg, stop))
		}(u)
	}
}

// runUnit executes one assignment on the worker's engine. The key
// cross-check makes version skew between coordinator and worker — a changed
// key grammar would silently change the derived seed — a hard error instead
// of a wrong-but-plausible result. A unit already warm in the worker's own
// cache (a -cache-dir survives restarts and may be shared or pre-seeded) is
// served through the Lookup seam without executing anything and flagged as
// a hit, so a warm cluster provably recomputes nothing.
func runUnit(eng *sweep.Engine, u WorkUnit, cfg WorkerConfig, stop <-chan struct{}) UnitResult {
	r := UnitResult{Epoch: u.Epoch, ID: u.ID, Key: u.Key}
	if want := "run|" + u.Spec.Key(); u.Key != want {
		r.Err = fmt.Sprintf("dist: unit %d key mismatch: coordinator sent %q, worker derives %q (version skew?)", u.ID, u.Key, want)
		return r
	}
	if res, ok := eng.Lookup(u.Spec); ok {
		if cfg.Logf != nil {
			cfg.Logf("dist: unit %d warm in worker cache: %s", u.ID, u.Key)
		}
		r.Result, r.CacheHit = res, true
		return r
	}
	if cfg.unitDelay > 0 {
		select {
		case <-time.After(cfg.unitDelay):
		case <-stop:
			r.Err = "dist: the connection ended while the unit was held"
			return r
		}
	}
	if cfg.Logf != nil {
		cfg.Logf("dist: running unit %d: %s", u.ID, u.Key)
	}
	start := time.Now()
	res, err := eng.Run(u.Spec)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Result, r.Elapsed = res, time.Since(start)
	return r
}

// Serve accepts connections on l and serves each (concurrently, sweep
// coordinators and simulation hubs alike) until the listener closes.
func Serve(l net.Listener, cfg WorkerConfig) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := ServeConn(conn, cfg); err != nil && cfg.Logf != nil {
				cfg.Logf("dist: connection ended: %v", err)
			}
		}()
	}
}

// Join dials a coordinator at addr and serves it until it hangs up. A failed
// dial is retried with exponential backoff plus jitter until the handshake
// timeout has passed, so workers and their coordinator may start in any
// order; the same deadline bounds each attempt, so a firewalled host fails
// fast instead of hanging on the OS connect timeout.
func Join(addr string, cfg WorkerConfig) error {
	deadline := time.Now().Add(cfg.withDefaults().handshakeTimeout)
	for round := uint64(1); ; round++ {
		conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
		if err == nil {
			return ServeConn(conn, cfg)
		}
		wait := backoff(round, joinRetryBase, joinRetryLimit)
		wait += rand.N(wait) // jitter: a fleet started together does not redial in phase
		if time.Until(deadline) < wait {
			return fmt.Errorf("dist: join %s: %w", addr, err)
		}
		time.Sleep(wait)
	}
}

// Join's redial backoff: the first retry waits about joinRetryBase, and the
// wait doubles up to joinRetryLimit (before jitter).
const (
	joinRetryBase  = 50 * time.Millisecond
	joinRetryLimit = time.Second
)

// backoff scales base exponentially up until limit. round is an increasing
// counter starting at 1.
func backoff(round uint64, base, limit time.Duration) time.Duration {
	wait := base
	for i := uint64(1); i < round && wait < limit; i++ {
		wait *= 2
	}
	return min(wait, limit)
}
