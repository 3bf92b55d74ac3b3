package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
)

// TestFetchDeployment reads a real server's /deployment document back into
// the config the server runs, then serves documents that are wrong one field
// at a time: each must be refused with an error naming that field.
func TestFetchDeployment(t *testing.T) {
	srv, err := New(Config{Spec: pipeline.TM(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()
	dep, err := FetchDeployment(live.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Spec: pipeline.TM(), Lib: profile.DefaultLibrary(), PolicyName: "pard",
		Workers: []int{2, 2, 2}, SyncPeriod: DefaultSyncPeriod, Seed: 7}
	if !reflect.DeepEqual(dep, want) {
		t.Fatalf("deployment over HTTP %+v, want %+v", dep, want)
	}
	resp, err := http.Get(live.URL + "/deployment")
	if err != nil {
		t.Fatal(err)
	}
	good, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// with returns the good document with one field replaced.
	with := func(field, value string) []byte {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		doc[field] = json.RawMessage(value)
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		want   string
	}{
		{"not-found", http.StatusNotFound, good, "GET /deployment: 404"},
		{"over-bound", http.StatusOK, append(slices.Clone(good), bytes.Repeat([]byte(" "), 1<<20)...), "server: deployment: document over"},
		{"not-json", http.StatusOK, []byte("{"), "server: deployment:"},
		{"pipeline-not-json", http.StatusOK, with("pipeline", `"tm"`), "deployment pipeline: pipeline: decode"},
		{"pipeline-missing", http.StatusOK, with("pipeline", `null`), "deployment pipeline"},
		{"pipeline-invalid", http.StatusOK, with("pipeline", `{"app":"x","slo_ns":0,"modules":[{"id":0,"name":"objdet"}]}`), "deployment pipeline: pipeline x: SLO"},
		{"library-not-json", http.StatusOK, with("library", `[1]`), "deployment library: profile: decode"},
		{"library-invalid", http.StatusOK, with("library", `{"models":{"objdet":{"alpha_ns":-1,"max_batch":1}}}`), "deployment library: profile: model objdet"},
		{"library-missing-model", http.StatusOK, with("library", `{"models":{}}`), `deployment library: module 0: profile: unknown model "objdet"`},
		{"unknown-policy", http.StatusOK, with("policy", `"bogus"`), `deployment policy: unknown policy "bogus"`},
		{"workers-short", http.StatusOK, with("workers", `[2,2]`), "deployment workers: 2 worker counts for 3 modules"},
		{"workers-zero", http.StatusOK, with("workers", `[2,0,2]`), "deployment workers: module 1: 0 workers"},
		{"workers-past-limit", http.StatusOK, with("workers", fmt.Sprintf("[2,2,%d]", sched.PoolLimit+1)), "deployment workers: module 2"},
		{"sync-zero", http.StatusOK, with("sync_period_ns", `0`), "deployment sync_period_ns"},
		{"sync-negative", http.StatusOK, with("sync_period_ns", `-250000000`), "deployment sync_period_ns"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write(tc.body)
			}))
			defer ts.Close()
			if _, err := FetchDeployment(ts.URL); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
