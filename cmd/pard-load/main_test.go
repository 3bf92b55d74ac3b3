package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pard"
	"pard/internal/load"
	"pard/internal/server"
)

// TestLoadAgainstLiveServer is the end-to-end smoke the CI step mirrors: a
// real live server, a short open-loop run, the sim twin, and the recorded
// trace written back out as CSV, which must read back as exactly the trace
// the twin replayed.
func TestLoadAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	scfg := pard.ServerConfig{Spec: pard.Apps()["tm"], Seed: 1}
	srv, err := pard.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr, err := pard.ResolveTrace("fixed", time.Second, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pard.RunLoad(pard.LoadConfig{Target: ts.URL, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goodput <= 0 {
		t.Fatalf("no goodput against the live server: %+v", rep)
	}

	if _, err := rep.CompareSim(scfg); err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil || rep.Sim.Goodput <= 0 {
		t.Fatalf("sim twin produced no goodput: %+v", rep.Sim)
	}

	// The JSON report is what the CI smoke asserts on: goodput fields of
	// both sides present and positive in one document.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Goodput float64 `json:"goodput"`
		Sim     *struct {
			Goodput float64 `json:"goodput"`
		} `json:"sim"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Goodput <= 0 || doc.Sim == nil || doc.Sim.Goodput <= 0 {
		t.Fatalf("JSON report missing goodput fields: %s", buf.String())
	}

	csvPath := filepath.Join(t.TempDir(), "sent.csv")
	if err := writeTraceCSV(csvPath, rep); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := pard.ReadTraceCSV("sent", f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep.Trace()) || back.Len() != rep.Sim.Total {
		t.Fatalf("CSV round trip: read %q, %d arrivals over %v; the twin replayed %d of %+v",
			back.Name, back.Len(), back.Duration, rep.Sim.Total, rep.Trace())
	}
}

// TestCompareSimTwinsTheServer runs the -compare-sim path with a trace seed
// (1) that is not the server's (5): the twin must be the server's own, read
// from its /deployment route, equal to CompareSim called in process with the
// config the server was built from. At this rate the server sheds and the
// seed decides some drops: on the schedule pard-load plans, twins seeded 1
// and 5 differ, so a twin seeded from pard-load's -seed would be wrong.
func TestCompareSimTwinsTheServer(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	scfg := pard.ServerConfig{Spec: pard.Apps()["tm"], Workers: []int{1, 1, 1}, Seed: 5}
	planned, err := pard.ResolveTrace("fixed", 2*time.Second, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := map[int64]int{}
	for _, seed := range []int64{1, 5} {
		cfg := scfg
		cfg.Seed = seed
		res, err := server.RunTwin(cfg, planned)
		if err != nil {
			t.Fatal(err)
		}
		good[seed] = res.Summary.Good
	}
	if good[1] == good[5] {
		t.Fatalf("on the planned schedule twins seeded 1 and 5 both read %d good: the check cannot tell them apart", good[1])
	}

	srv, err := pard.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out bytes.Buffer
	rep, err := run([]string{"-target", ts.URL, "-kind", "fixed", "-rate", "200", "-duration", "2s",
		"-seed", "1", "-compare-sim", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Requests int                 `json:"requests"`
		Sim      *load.SimComparison `json:"sim"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sim == nil || doc.Sim.Total != doc.Requests || *doc.Sim != *rep.Sim {
		t.Fatalf("JSON report's twin %+v, report's %+v, %d requests", doc.Sim, rep.Sim, doc.Requests)
	}
	got := *rep.Sim
	want, err := rep.CompareSim(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != *want {
		t.Fatalf("twin over HTTP %+v, in process %+v", got, *want)
	}
}

func TestWriteTraceCSVEmptyReport(t *testing.T) {
	if err := writeTraceCSV(filepath.Join(t.TempDir(), "x.csv"), &pard.LoadReport{}); err == nil {
		t.Fatal("empty report accepted")
	}
}
