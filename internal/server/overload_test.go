package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
)

// tmCapacity is what tmServer serves at most, in requests per second: one
// worker per module, and the slowest of tm's three models at its target batch.
const tmCapacity = 120

// tmServer builds the tm pipeline on a ManualExecutor with one worker per
// module, seed 1 and the default 250 ms sync period.
func tmServer(t testing.TB) (*Server, *sched.ManualExecutor) {
	t.Helper()
	man := sched.NewManualExecutor()
	s, err := New(Config{
		Spec:    pipeline.TM(),
		Workers: []int{1, 1, 1},
		Seed:    1,
		Exec:    man,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s, man
}

// openLoopResult is what openLoop saw.
type openLoopResult struct {
	sent, good int
	// maxOutstanding is the most requests sent and not yet answered at once.
	maxOutstanding int
	// slowest is the longest any request waited for its answer.
	slowest time.Duration
}

// openLoop sends Poisson arrivals at rate through Submit for dur of virtual
// time, then runs the clock on until every request is answered. Before each
// send the executor fires everything due, and every answer that has landed
// is received, once, as Submit's contract asks. It fails as soon as more than
// limit requests are outstanding. each, when not nil, runs after every send.
func openLoop(t testing.TB, s *Server, man *sched.ManualExecutor, rate float64, dur time.Duration, limit int, each func(at time.Duration)) openLoopResult {
	t.Helper()
	var res openLoopResult
	var pending []<-chan Response
	collect := func() {
		live := pending[:0]
		for _, ch := range pending {
			select {
			case r := <-ch:
				if r.Outcome == OutcomeGood {
					res.good++
				}
				res.slowest = max(res.slowest, time.Duration(r.LatencyMS*1000)*time.Microsecond)
			default:
				live = append(live, ch)
			}
		}
		clear(pending[len(live):])
		pending = live
	}
	rng := rand.New(rand.NewSource(1))
	start := man.Now()
	for at := start; at < start+dur; at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		man.RunUntil(at)
		collect()
		pending = append(pending, s.Submit())
		res.sent++
		res.maxOutstanding = max(res.maxOutstanding, len(pending))
		if len(pending) > limit {
			t.Fatalf("%d requests outstanding at %v, over the bound of %d", len(pending), at-start, limit)
		}
		if each != nil {
			each(at)
		}
	}
	for guard := 0; len(pending) > 0; guard++ {
		if guard > 1000 {
			t.Fatalf("%d requests still unanswered %v after the last send", len(pending), time.Duration(guard)*s.cfg.SyncPeriod)
		}
		man.RunUntil(man.Now() + s.cfg.SyncPeriod)
		collect()
	}
	return res
}

// TestSustainedOverloadSheds holds tm at 2.5× its capacity for a virtual
// minute. Serving High Budget First, the workers shed the doomed requests
// from the other end of their queues, so every request is answered within
// its SLO plus one sync period, and the backlog stays bounded: without the
// shedding about 10 000 requests were still parked at the end of the minute,
// and the count grew linearly. Shedding only answers earlier what was doomed
// anyway: the good count is the one the server had without it.
func TestSustainedOverloadSheds(t *testing.T) {
	const (
		rate  = 2.5 * tmCapacity
		bound = 128
		good  = 7474
	)
	s, man := tmServer(t)
	res := openLoop(t, s, man, rate, time.Minute, bound, nil)
	t.Logf("%d sent, %d good, at most %d outstanding, slowest answer %v", res.sent, res.good, res.maxOutstanding, res.slowest)
	if limit := s.cfg.Spec.SLO + s.cfg.SyncPeriod; res.slowest > limit {
		t.Errorf("a request waited %v for its answer, over SLO + one sync period (%v)", res.slowest, limit)
	}
	if res.good != good {
		t.Errorf("%d good completions, want %d", res.good, good)
	}
	if sum := s.Summary(); sum.Total != res.sent || sum.Good != res.good {
		t.Errorf("summary counts %d requests, %d good; the clients saw %d, %d good", sum.Total, sum.Good, res.sent, res.good)
	}
}

// liveHeap returns the heap the garbage collector found live, after a full
// collection (two, so that pools' victim caches are gone too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestSoakLiveHeapFlat runs the server for a long virtual stretch at 1× and
// at 2.5× capacity and checks that its live heap does not grow with the
// number of requests served: a per-request ledger record, a parked request or
// a response channel that is never returned would each add bytes per request.
func TestSoakLiveHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("a long virtual soak")
	}
	const (
		dur   = 2 * time.Hour
		slack = 256 << 10
	)
	for _, load := range []float64{1, 2.5} {
		t.Run(map[float64]string{1: "1x", 2.5: "2.5x"}[load], func(t *testing.T) {
			s, man := tmServer(t)
			var base uint64
			start := man.Now()
			res := openLoop(t, s, man, load*tmCapacity, dur, 1000, func(at time.Duration) {
				if base == 0 && at-start >= dur/10 {
					base = liveHeap()
				}
			})
			end := liveHeap()
			t.Logf("%d requests, live heap %d B after the first tenth, %d B at the end", res.sent, base, end)
			if end > base+slack {
				t.Errorf("live heap grew %d B over %d requests (slack %d B)", end-base, res.sent, slack)
			}
		})
	}
}

// TestStatsBytesShortRun pins the /stats document of a short overloaded run
// on the virtual clock, byte for byte: the ledger's aggregates, and the
// fields they are reported under, are the same whether the server keeps a
// record per request or only a tally. The run is nexus's, whose queues are
// FIFO and so shed nothing ahead of service, behind an in-flight bound, so
// every outcome is counted.
func TestStatsBytesShortRun(t *testing.T) {
	man := sched.NewManualExecutor()
	s, err := New(Config{
		Spec:        pipeline.TM(),
		PolicyName:  "nexus",
		Workers:     []int{1, 1, 1},
		Seed:        1,
		Exec:        man,
		MaxInFlight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	openLoop(t, s, man, 2.5*tmCapacity, 2*time.Second, 1<<20, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	const want = `{"Total":610,"Good":39,"Late":0,"Dropped":337,"Rejected":234,"DropRate":0.5524590163934426,"InvalidRate":0.7203290841253359,"Goodput":16.75257731958763,"OfferedRate":262.02749140893474,"PerModuleDropPct":[25.816023738872403,60.53412462908012,13.649851632047477],"GPUTotal":3565499973,"GPUWasted":2568333330}`
	if got := rec.Body.String(); got != want+"\n" {
		t.Fatalf("/stats of a short run:\n%s\nwant\n%s", got, want)
	}
}
