package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
)

// TestUnreceivedChannelNotReused: a channel goes back to the pool right after
// its one send, with the value possibly still in its buffer. Until that value
// is received the channel belongs to its receiver, so takeChan must never
// hand it to another request.
func TestUnreceivedChannelNotReused(t *testing.T) {
	ch := takeChan()
	answer(ch, Response{ID: 7})
	for i := 0; i < 100; i++ {
		if got := takeChan(); got == ch {
			t.Fatalf("take %d handed out a channel still holding %+v", i, <-ch)
		}
	}
	if r := <-ch; r.ID != 7 {
		t.Fatalf("the channel's receiver got %+v, want ID 7", r)
	}
}

// TestChannelOwnershipHammer shares the response-channel pool between
// Submit callers and /infer handlers on the wall clock. The pipeline is
// overloaded under the naive policy, which never drops, so many /infer
// requests stall into 504s or are cancelled by their clients, and their
// answers land later in channels nobody will drain. Every Submit caller must
// still receive exactly its own answer, once, and no answer may reach two
// receivers.
func TestChannelOwnershipHammer(t *testing.T) {
	lib := profile.NewLibrary()
	if err := lib.Add(profile.Model{Name: "slow", Alpha: 2 * time.Millisecond, Beta: time.Millisecond, MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Spec:       pipeline.Uniform("ownership", 3, "slow", 3*time.Millisecond), // 504 after 30 ms
		Lib:        lib,
		PolicyName: "naive",
		Workers:    []int{1, 1, 1},
		SyncPeriod: 10 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		// A resolver blocked sending into a channel another request's answer
		// filled would hang Stop, so a failed run leaves its server behind.
		if !t.Failed() {
			s.Stop()
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		submitters, perSubmitter = 6, 25
		clients, perClient       = 4, 25
	)
	var mu sync.Mutex
	seen := map[uint64]string{}
	note := func(id uint64, who string) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[id]; ok {
			t.Errorf("answer %d reached %s after %s", id, who, prev)
		}
		seen[id] = who
	}
	var wg sync.WaitGroup
	var stalled, cancelled, answered atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 0 {
					time.AfterFunc(time.Duration(i%4)*time.Millisecond, cancel)
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/infer", nil)
				resp, err := ts.Client().Do(req)
				if err != nil {
					cancel()
					cancelled.Add(1)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusGatewayTimeout:
					stalled.Add(1)
				case http.StatusOK:
					var out Response
					if err := json.Unmarshal(body, &out); err != nil {
						t.Errorf("client %d: reply %q: %v", c, body, err)
						return
					}
					answered.Add(1)
					note(out.ID, "an /infer client")
				default:
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				pr := s.submit()
				id := pr.req.ID
				select {
				case r := <-pr.done:
					if r.ID != id {
						t.Errorf("submitter %d received answer %d for request %d", g, r.ID, id)
						return
					}
					note(r.ID, "a Submit caller")
				case <-time.After(10 * time.Second):
					t.Errorf("submitter %d: request %d unanswered after 10 s", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("/infer: %d answered, %d stalled into 504, %d cancelled; %d Submit calls answered",
		answered.Load(), stalled.Load(), cancelled.Load(), submitters*perSubmitter)
	if stalled.Load()+cancelled.Load() == 0 {
		t.Fatal("no /infer request was abandoned: the hammer did not exercise undrained channels")
	}
}
