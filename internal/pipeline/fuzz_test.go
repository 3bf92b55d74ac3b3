package pipeline_test

import (
	"bytes"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/sched"
	"pard/internal/server"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// FuzzPipelineSpec fuzzes the JSON pipeline-spec surface: any input that
// survives Parse (and therefore Validate) must be servable — server.New and
// the simulator must never panic, must agree on accepting or rejecting the
// spec, and a validated spec's graph helpers and JSON round-trip must hold.
// The corpus seeds are the paper's four applications plus the dynamic-branch
// variant and a few malformed shapes.
func FuzzPipelineSpec(f *testing.F) {
	for _, s := range []*pipeline.Spec{
		pipeline.TM(), pipeline.LV(), pipeline.GM(), pipeline.DA(), pipeline.DADynamic(0.5),
	} {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Malformed shapes steer the fuzzer toward validation edges: dangling
	// edge, cycle, unknown model, zero SLO.
	f.Add([]byte(`{"app":"x","slo_ns":1000,"modules":[{"id":0,"name":"objdet","subs":[3]}]}`))
	f.Add([]byte(`{"app":"x","slo_ns":400000000,"modules":[{"id":0,"name":"objdet","pres":[1],"subs":[1]},{"id":1,"name":"facerec","pres":[0],"subs":[0]}]}`))
	f.Add([]byte(`{"app":"x","slo_ns":400000000,"modules":[{"id":0,"name":"no-such-model"}]}`))
	f.Add([]byte(`{"app":"x","slo_ns":0,"modules":[{"id":0,"name":"objdet"}]}`))

	tinyTrace := trace.MustGenerate(trace.Config{
		Kind: trace.Steady, Duration: 200 * time.Millisecond, PeakRate: 50, Seed: 1,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return // keep adversarial inputs cheap
		}
		spec, err := pipeline.Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected at validation; nothing more to agree on
		}
		if spec.N() > 12 {
			// DownstreamPaths enumerates all source→sink paths; dense
			// fuzzer-built DAGs can make that combinatorial. The serving
			// stack is exercised on realistically sized pipelines.
			return
		}
		// A validated spec's paths must not panic and must reach the sink.
		if paths := spec.AllPaths(); len(paths) == 0 {
			t.Fatal("validated spec has no source→sink path")
		}
		// JSON round-trip: a validated spec serializes to a spec that
		// validates back.
		var buf bytes.Buffer
		if err := spec.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := pipeline.Parse(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}

		// The two hosts must agree on accept/reject and never panic.
		srv, srvErr := server.New(server.Config{
			Spec: spec,
			Exec: sched.NewManualExecutor(),
		})
		_, simErr := simgpu.New(simgpu.Config{
			Spec:  spec,
			Trace: tinyTrace,
		})
		if (srvErr == nil) != (simErr == nil) {
			t.Fatalf("hosts disagree: server.New err=%v, simgpu.New err=%v", srvErr, simErr)
		}
		if srvErr == nil {
			// Drive one request through the live shell on the fake clock so
			// the accept path actually executes the pipeline.
			man := sched.NewManualExecutor()
			srv, srvErr = server.New(server.Config{Spec: spec, Exec: man, Seed: 7})
			if srvErr != nil {
				t.Fatalf("server.New succeeded then failed on identical config: %v", srvErr)
			}
			ch := srv.Submit()
			man.RunUntil(3 * spec.SLO)
			select {
			case <-ch:
			default: // stuck in queue is legal (no sync ticks); panics are not
			}
			srv.Stop()
		} else {
			_ = srv
		}
	})
}
