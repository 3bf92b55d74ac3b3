package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"pard/internal/dist"
	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/sweep"
	"pard/internal/trace"
)

// distConfig is the BenchmarkLaneGroupBarrier configuration: a short DA run
// with a tight sync period, so the per-window lockstep exchange dominates.
func distConfig(seed int64) (simgpu.Config, error) {
	tr, err := trace.Generate(trace.Config{
		Kind: trace.Steady, Duration: 4 * time.Second, PeakRate: 300, Seed: seed,
	})
	if err != nil {
		return simgpu.Config{}, err
	}
	return simgpu.Config{
		Spec:         pipeline.DA(),
		PolicyName:   "pard",
		Trace:        tr,
		Seed:         seed,
		SyncPeriod:   100 * time.Millisecond,
		FixedWorkers: []int{8, 8, 8, 8, 8},
	}, nil
}

// encodeResult is the byte form two replicas of one simulation must share
// (the comparison simgpu's own in-process lane groups make).
func encodeResult(r *simgpu.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// distFixture is the loopback listener a dist op dials, and the
// single-process result every replica must reproduce.
type distFixture struct {
	cfg  simgpu.Config
	l    net.Listener
	want []byte
	ref  *simgpu.Result
}

// distOp runs one simulation split over two lane groups: the spoke serves on
// an accepted connection while the hub dials and drives. wrap, when set,
// interposes on the hub's end of the socket.
func (f *distFixture) distOp(wrap func(net.Conn) net.Conn) (hub, spoke *simgpu.Result, err error) {
	type served struct {
		res *simgpu.Result
		err error
	}
	spokeDone := make(chan served, 1)
	go func() {
		conn, err := f.l.Accept()
		if err != nil {
			spokeDone <- served{nil, err}
			return
		}
		res, err := dist.ServeSim(conn, dist.SimOptions{})
		spokeDone <- served{res, err}
	}()
	conn, err := net.Dial("tcp", f.l.Addr().String())
	if err != nil {
		// The spoke is still in Accept; closing the listener is the only
		// way to release it, and the run is over anyway.
		f.l.Close()
		<-spokeDone
		return nil, nil, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	hub, err = dist.RunSimDistributed(f.cfg, []net.Conn{conn}, dist.SimOptions{})
	if err != nil {
		conn.Close()
	}
	s := <-spokeDone
	if err != nil {
		return nil, nil, err
	}
	return hub, s.res, s.err
}

// checkReplica compares one replica's result with the single-process run.
func (c *runCtx) checkReplica(what string, res *simgpu.Result, want []byte) bool {
	got, err := encodeResult(res)
	if err != nil || !bytes.Equal(got, want) {
		c.res.violate("%s: result differs from the single-process run (%v)", what, err)
		return false
	}
	return true
}

func runDist(c *runCtx) error {
	fix, teardown, err := setUp(c, func() (*distFixture, func(), error) {
		cfg, err := distConfig(c.seed)
		if err != nil {
			return nil, nil, err
		}
		ref, err := simgpu.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		want, err := encodeResult(ref)
		if err != nil {
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		f := &distFixture{cfg: cfg, l: l, want: want, ref: ref}
		if _, _, err := f.distOp(nil); err != nil { // warm-up op
			l.Close()
			return nil, nil, err
		}
		return f, func() { l.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if fix.ref.Summary.Total != fix.cfg.Trace.Len() {
		c.res.violate("single-process run accounts for %d requests, trace has %d", fix.ref.Summary.Total, fix.cfg.Trace.Len())
	}
	op := func(wrap func(net.Conn) net.Conn, what string) func(int) error {
		return func(int) error {
			hub, spoke, err := fix.distOp(wrap)
			if err != nil {
				return err
			}
			c.res.Attempted++
			okHub := c.checkReplica(what+" hub", hub, fix.want)
			okSpoke := c.checkReplica(what+" spoke", spoke, fix.want)
			if !okHub || !okSpoke {
				c.res.Failed++
			}
			return nil
		}
	}

	if !c.traced() {
		costs, err := c.measureOps(op(nil, "op"))
		if err != nil {
			return err
		}
		var served simTotals
		if err := served.addResult(fix.ref); err != nil {
			return err
		}
		c.setOpCosts(costs, served.total)
		c.setSimMetrics(served)
		return nil
	}

	// Traced ops, in turn with untraced ones: a counting, timing net.Conn
	// around the hub's socket, each read and write a span under the hub's run.
	var conns []*countingConn
	var hubRuns []float64
	baseAllocs := 0.0
	plain := op(nil, "baseline op")
	base, tracedWalls, err := alternate(c.budget(0.6), c.size.pairs(), func(i int) error {
		cost := readHostCost()
		err := plain(i)
		allocs, _ := cost.since()
		baseAllocs += allocs
		return err
	}, func(i int) error {
		id, root := c.tr.newOp(), c.tr.newID()
		hubID := c.tr.newID()
		start := time.Now()
		var hubStart time.Time
		err := op(func(conn net.Conn) net.Conn {
			cc := &countingConn{Conn: conn, tr: c.tr, op: id, parent: hubID}
			conns = append(conns, cc)
			hubStart = time.Now()
			return cc
		}, "traced op")(i)
		end := time.Now()
		// The hub's run ends when RunSimDistributed returns; the spoke
		// finishes within the same final exchange, so the op's end stands in.
		c.tr.record(hubID, id, root, "dist", "RunSimDistributed", hubStart, end)
		c.tr.record(root, id, 0, "bench", "op", start, end)
		hubRuns = append(hubRuns, ms(end.Sub(hubStart)))
		return err
	})
	if err != nil {
		return err
	}

	mem, err := c.memGroups(fix)
	if err != nil {
		return err
	}

	n := float64(len(conns))
	var tx, rx, writes, reads, readWait, writeTime float64
	for _, cc := range conns {
		tx += float64(cc.txBytes.Load()) / n
		rx += float64(cc.rxBytes.Load()) / n
		writes += float64(cc.writes.Load()) / n
		reads += float64(cc.reads.Load()) / n
		readWait += ms(time.Duration(cc.readNs.Load())) / n
		writeTime += ms(time.Duration(cc.writeNs.Load())) / n
	}
	r := c.res
	r.set("dist.hub_run_ms", median(hubRuns), len(hubRuns))
	r.set("dist.wire_bytes_tx", tx, len(conns))
	r.set("dist.wire_bytes_rx", rx, len(conns))
	r.set("dist.writes_per_op", writes, len(conns))
	r.set("dist.reads_per_op", reads, len(conns))
	r.set("dist.bytes_per_exchange", (tx+rx)/mem.exchanges, len(conns))
	r.set("dist.read_wait_ms", readWait, len(conns))
	r.set("dist.write_ms", writeTime, len(conns))
	r.set("dist.codec_self_ms", median(hubRuns)-readWait-writeTime-mem.runMs, len(hubRuns))
	r.set("dist.allocs_per_exchange", baseAllocs/float64(len(base))/mem.exchanges, len(base))
	r.set("dist.gob_over_mem", median(base)/mem.runMs, len(base))
	r.set("simgpu.events_per_op", float64(fix.ref.SimEvents), 1)
	s := fix.ref.Summary
	r.set("policy.drop_share", float64(s.Dropped)/float64(s.Total), s.Total)

	if err := c.sweepLoopback(); err != nil {
		return err
	}
	c.setTraceOverhead(base, tracedWalls)
	c.setLayerSelf()
	return runProbes(c)
}

// memFigures is the same two-group run over the in-process transport.
type memFigures struct {
	runMs, exchanges float64
}

// memGroups runs the dist configuration as two in-process lane groups, each
// handed a counting wrapper around its memTransport: the engine's share of a
// cross-host run, and the number and size of the exchanges it makes.
func (c *runCtx) memGroups(fix *distFixture) (memFigures, error) {
	const groups, reps = 2, 5
	var walls []float64
	var last [groups]*countingTransport
	for rep := 0; rep < reps; rep++ {
		trs := sched.NewMemTransports(groups)
		var results [groups]*simgpu.Result
		var errs [groups]error
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < groups; g++ {
			ct := &countingTransport{Transport: trs[g]}
			last[g] = ct
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cfg := fix.cfg
				cfg.Remote = &simgpu.RemoteTopology{Groups: groups, Group: g, Transport: ct}
				results[g], errs[g] = simgpu.Run(cfg)
				if errs[g] != nil {
					ct.Abort(errs[g]) // release the peer from its rendezvous
				}
			}(g)
		}
		wg.Wait()
		walls = append(walls, ms(time.Since(start)))
		for g := 0; g < groups; g++ {
			if errs[g] != nil {
				return memFigures{}, fmt.Errorf("in-process lane group %d: %w", g, errs[g])
			}
			c.res.Attempted++
			if !c.checkReplica(fmt.Sprintf("mem group %d", g), results[g], fix.want) {
				c.res.Failed++
			}
		}
	}
	ct := last[0]
	if other := last[1].exchanges(); other != ct.exchanges() {
		c.res.violate("lane groups disagree on the exchange count: %d vs %d", ct.exchanges(), other)
	}
	r := c.res
	r.set("sched.groups2_run_ms", median(walls), reps)
	r.set("sched.exchanges_per_op", float64(ct.exchanges()), 1)
	r.set("sched.posts_per_barrier", float64(ct.posts)/float64(ct.barriers), ct.barriers)
	r.set("sched.intents_per_barrier", float64(ct.intents)/float64(ct.barriers), ct.barriers)
	r.set("sched.empty_barrier_share", float64(ct.emptyBarriers)/float64(ct.barriers), ct.barriers)
	r.set("sched.exchange_wait_ms", ms(ct.wait), ct.exchanges())
	return memFigures{runMs: median(walls), exchanges: float64(ct.exchanges())}, nil
}

// sweepLoopback drives the other session stack: a 4-spec grid through a
// coordinator and one worker over loopback TCP, checked against the same
// grid run locally.
func (c *runCtx) sweepLoopback() error {
	specs := []sweep.Spec{
		{App: "tm", Kind: trace.Steady, Policy: "pard"},
		{App: "tm", Kind: trace.Steady, Policy: "naive"},
		{App: "lv", Kind: trace.Steady, Policy: "pard"},
		{App: "lv", Kind: trace.Steady, Policy: "naive"},
	}
	engine := func() *sweep.Engine {
		return sweep.New(sweep.Config{Workers: 1, BaseSeed: c.seed, TraceDuration: 10 * time.Second})
	}
	local, err := engine().Sweep(specs)
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	workerDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			workerDone <- err
			return
		}
		workerDone <- dist.ServeConn(conn, dist.WorkerConfig{Workers: 1})
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-workerDone
		return err
	}
	conn := &countingConn{Conn: raw}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{Engine: engine()})
	start := time.Now()
	err = coord.AddConn(conn)
	var remote []*simgpu.Result
	if err == nil {
		remote, err = coord.Sweep(context.Background(), specs)
	}
	elapsed := time.Since(start)
	coord.Close() // closes the connection, which is the worker's goodbye
	raw.Close()
	werr := <-workerDone
	if err != nil {
		return fmt.Errorf("loopback sweep: %w", err)
	}
	if werr != nil {
		return fmt.Errorf("loopback sweep worker: %w", werr)
	}
	for i := range specs {
		c.res.Attempted++
		want, err := encodeResult(local[i])
		if err != nil {
			return err
		}
		if !c.checkReplica(fmt.Sprintf("loopback sweep spec %d", i), remote[i], want) {
			c.res.Failed++
		}
	}
	c.res.set("dist.sweep_loopback_ms", ms(elapsed), 1)
	c.res.set("dist.sweep_wire_bytes", float64(conn.txBytes.Load()+conn.rxBytes.Load()), 1)
	return nil
}
