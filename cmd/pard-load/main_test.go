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
)

// TestLoadAgainstLiveServer is the end-to-end smoke the CI step mirrors: a
// real live server, a short open-loop run, the sim twin, and the recorded
// trace written back out as CSV, which must read back as exactly the trace
// the twin replayed.
func TestLoadAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	spec := pard.Apps()["tm"]
	ws := make([]int, spec.N())
	for i := range ws {
		ws[i] = 2
	}
	srv, err := pard.NewServer(pard.ServerConfig{
		Spec:       spec,
		PolicyName: "pard",
		Workers:    ws,
		Seed:       1,
	})
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

	if _, err := rep.CompareSim(pard.LoadSimSpec{
		Spec:       spec,
		PolicyName: "pard",
		Workers:    ws,
		SyncPeriod: 250 * time.Millisecond,
		Seed:       1,
	}); err != nil {
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

func TestWriteTraceCSVEmptyReport(t *testing.T) {
	if err := writeTraceCSV(filepath.Join(t.TempDir(), "x.csv"), &pard.LoadReport{}); err == nil {
		t.Fatal("empty report accepted")
	}
}
