package simgpu

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/wire"
)

// gobBytes is the byte-identity oracle: gob walks every field of a result.
func gobBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultCodecRoundTrip: a result with every probe armed, and one with
// none, decodes from its wire form to a result gob cannot tell from the
// original (Summary recomputed from the collector included), re-encodes to
// the identical bytes, and fits the run it came from.
func TestResultCodecRoundTrip(t *testing.T) {
	all := ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 1}
	for _, probes := range []ProbeConfig{{}, all} {
		res := runLV(t, "pard", steadyTrace(300, 5*time.Second, 29), func(c *Config) { c.Probes = probes })
		b := AppendResult(nil, res)
		r := wire.NewReader(b)
		got := ReadResult(&r)
		if err := r.Done("result"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, res)) {
			t.Fatalf("probes %+v: the decoded result differs from the original", probes)
		}
		if !bytes.Equal(AppendResult(nil, got), b) {
			t.Fatalf("probes %+v: the decoded result re-encodes differently", probes)
		}
		if err := got.Fits(5, probes); err != nil {
			t.Fatalf("probes %+v: %v", probes, err)
		}
	}
}

// TestResultFits: a result is refused where a consumer would index past it
// — no collector, another module count, probe series missing or present
// against the run's probes, per-module slices that disagree with the
// collector — and ReadResult refuses the ones its own collector contradicts.
func TestResultFits(t *testing.T) {
	res := runLV(t, "pard", steadyTrace(300, 5*time.Second, 29), func(c *Config) {
		c.Probes = ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 1}
	})
	probes := ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true}
	mutated := func(f func(*Result)) *Result {
		cp := *res
		f(&cp)
		return &cp
	}
	cases := []struct {
		name   string
		r      *Result
		mods   int
		probes ProbeConfig
		want   string
		decode bool // ReadResult refuses it as well
	}{
		{"no collector", mutated(func(r *Result) { r.Collector = nil }), 5, probes, "no collector", false},
		{"other pipeline", res, 4, probes, "for a pipeline of 4", false},
		{"probes off", res, 5, ProbeConfig{}, "series", false},
		{"queue delay missing", mutated(func(r *Result) { r.QueueDelay = nil }), 5, probes, "queue-delay", false},
		{"a nil series", mutated(func(r *Result) { r.Consumed = append([]*metrics.Series{nil}, r.Consumed[1:]...) }), 5, probes, "nil among them: true", false},
		{"wait samples missing", mutated(func(r *Result) { r.WaitSamples = nil }), 5, probes, "batch-wait", false},
		{"mode series missing", mutated(func(r *Result) { r.ModeSeries = nil }), 5, probes, "priority-mode", false},
		{"short peaks", mutated(func(r *Result) { r.PeakWorkers = r.PeakWorkers[:4] }), 5, probes, "worker peaks", true},
		{"short probe list", mutated(func(r *Result) { r.Remaining = r.Remaining[:2] }), 5, probes, "probe list of 2", true},
		{"ragged decomposition", mutated(func(r *Result) { r.SumD = r.SumD[1:] }), 5, probes, "decomposition", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.r.Fits(tc.mods, tc.probes); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fits = %v, want an error containing %q", err, tc.want)
			}
			if !tc.decode {
				return
			}
			r := wire.NewReader(AppendResult(nil, tc.r))
			if got := ReadResult(&r); got != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("ReadResult = %v, %v, want a failure containing %q", got, r.Err(), tc.want)
			}
		})
	}
}
