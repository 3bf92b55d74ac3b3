package core

import (
	"sync"
	"testing"
	"time"
)

// TestBoardConcurrentPublishGet hammers the shared state board from many
// goroutines at once — the access pattern the live server creates now that
// worker timers, sync ticks and HTTP submits share one Board across real
// threads. Run under -race (CI does) this doubles as the data-race proof;
// the invariant checked here is that readers only ever observe complete
// snapshots, never a torn mix of two publishes.
func TestBoardConcurrentPublishGet(t *testing.T) {
	const (
		modules = 4
		writers = 8 // two writers per module: write-write and read-write races
		readers = 8
		rounds  = 2000
	)
	b := NewBoard(modules)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers publish self-consistent snapshots: every field of round i
	// derives from i, so a torn read is detectable.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				st := ModuleState{
					QueueDelay:  time.Duration(i) * time.Millisecond,
					ProfiledDur: time.Duration(i) * time.Microsecond,
					InputRate:   float64(i),
					Throughput:  float64(2 * i),
					BatchWait:   []float64{float64(i), float64(i)},
					Overloaded:  i%2 == 0,
				}
				b.Publish(w%modules, st)
			}
		}()
	}

	errc := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < modules; k++ {
					s := b.Get(k)
					i := int(s.InputRate)
					if i == 0 {
						continue // initial zero state
					}
					if s.QueueDelay != time.Duration(i)*time.Millisecond ||
						s.Throughput != float64(2*i) ||
						len(s.BatchWait) != 2 || s.BatchWait[0] != float64(i) {
						select {
						case errc <- "torn snapshot observed":
						default:
						}
						return
					}
				}
			}
		}()
	}

	// Let writers finish, then release readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

// TestBoardHighReaderHammer is the admission-gate access pattern: a huge
// reader population (every HTTP submit consults the board-backed gate)
// against a single periodic publisher per module. With the old RWMutex this
// serialized all readers through one cache line; with per-module atomic
// snapshots it must stay race-clean AND torn-free at reader counts far above
// the writer count. Run under -race in CI.
func TestBoardHighReaderHammer(t *testing.T) {
	const (
		modules = 3
		readers = 64
		rounds  = 500
	)
	b := NewBoard(modules)
	var wg sync.WaitGroup

	// One publisher per module, self-consistent snapshots as above.
	for k := 0; k < modules; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				b.Publish(k, ModuleState{
					QueueDelay:  time.Duration(i) * time.Millisecond,
					ProfiledDur: time.Duration(i) * time.Microsecond,
					InputRate:   float64(i),
					Throughput:  float64(2 * i),
					BatchWait:   []float64{float64(i)},
				})
			}
		}()
	}

	errc := make(chan string, readers)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < modules; k++ {
					s := b.Get(k)
					i := int(s.InputRate)
					if i == 0 {
						continue
					}
					if s.QueueDelay != time.Duration(i)*time.Millisecond ||
						s.Throughput != float64(2*i) ||
						len(s.BatchWait) != 1 || s.BatchWait[0] != float64(i) {
						select {
						case errc <- "torn snapshot under high reader load":
						default:
						}
						return
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

// BenchmarkBoardGetParallel measures the read side under contention: every
// proc hammers Get while one goroutine republishes — the shape the live
// server's admission gate and sync loop create at high -conns. The lock-free
// board should scale reads near-linearly where the RWMutex serialized them.
func BenchmarkBoardGetParallel(b *testing.B) {
	board := NewBoard(4)
	st := ModuleState{
		QueueDelay:  5 * time.Millisecond,
		ProfiledDur: 30 * time.Millisecond,
		InputRate:   300,
		Throughput:  400,
		BatchWait:   []float64{0.01, 0.02},
	}
	for k := 0; k < len(board.states); k++ {
		board.Publish(k, st)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			board.Publish(i%len(board.states), st)
			time.Sleep(time.Millisecond)
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			s := board.Get(k % 4)
			if s.Throughput == 0 {
				b.Error("zero snapshot")
			}
			k++
		}
	})
}

// BenchmarkBoardPublish measures copy-on-publish cost (one heap copy + one
// atomic store per call) — the price paid per module per sync tick for the
// lock-free read path.
func BenchmarkBoardPublish(b *testing.B) {
	board := NewBoard(1)
	st := ModuleState{QueueDelay: time.Millisecond, InputRate: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.Publish(0, st)
	}
}
