package dist

import (
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/simgpu"
	"pard/internal/trace"
)

// A peer's exchange names modules by index, and the engine indexes its
// module arrays with them. These tests run a real two-group simulation over
// net.Pipe in which one side rewrites its own contribution to one exchange —
// an index out of range, a row for a module its sender does not own, a row
// sent twice — and require the reading side to end the session with an error
// naming the field and the sending group, never a panic.

// hostileRow rewrites lane group g's message of one exchange kind, returning
// false when the message has nothing of the kind to rewrite.
type hostileRow struct {
	name, field string
	kind        uint8
	rewrite     func(msg any, g int) bool
}

func barrierRow(name, field string, add func(m *sched.BarrierMsg, g int32)) hostileRow {
	return hostileRow{name, field, simKindBarrier, func(msg any, g int) bool {
		m := msg.(*sched.BarrierMsg)
		m.Posts, m.Intents = slices.Clip(m.Posts), slices.Clip(m.Intents)
		m.Charges, m.Merges = slices.Clip(m.Charges), slices.Clip(m.Merges)
		add(m, int32(g))
		return true
	}}
}

// rowRows builds the three rewrites of a kind whose message carries one row
// or report per owned module: the first row's module out of range, the first
// row's module the peer's, and the first row sent again at the end.
func rowRows[R any](kind uint8, field string, rows func(msg any) *[]R, mod func(*R) *int32) []hostileRow {
	name := simKindName(kind)
	rewrite := func(change func(rs []R, g int) []R) func(any, int) bool {
		return func(msg any, g int) bool {
			rs := rows(msg)
			if len(*rs) == 0 {
				return false
			}
			*rs = change(slices.Clone(*rs), g)
			return true
		}
	}
	return []hostileRow{
		{name + "-out-of-range", field, kind, rewrite(func(rs []R, _ int) []R { *mod(&rs[0]) = 99; return rs })},
		{name + "-peer-module", field, kind, rewrite(func(rs []R, g int) []R { *mod(&rs[0]) = int32(1 - g); return rs })},
		{name + "-twice", field, kind, rewrite(func(rs []R, _ int) []R { return append(rs, rs[0]) })},
	}
}

func hostileRows() []hostileRow {
	rows := []hostileRow{
		barrierRow("post-src", "post Src", func(m *sched.BarrierMsg, g int32) {
			m.Posts = append(m.Posts, sched.WirePost{At: time.Hour, Src: 1000, Dst: 1 - g})
		}),
		// 1000 + the reader's group is a module the reader's ownership test
		// claims (k % 2): only the range check stands between it and the
		// module array.
		barrierRow("post-dst", "post Dst", func(m *sched.BarrierMsg, g int32) {
			m.Posts = append(m.Posts, sched.WirePost{At: time.Hour, Src: g, Dst: 1000 + 1 - g})
		}),
		barrierRow("intent", "intent Mod", func(m *sched.BarrierMsg, g int32) {
			m.Intents = append(m.Intents, sched.WireIntent{At: time.Millisecond, Mod: 99, Drop: true})
		}),
		barrierRow("charge", "charge Mod", func(m *sched.BarrierMsg, g int32) {
			m.Charges = append(m.Charges, sched.WireCharge{Mod: 99, GPU: time.Millisecond})
		}),
		barrierRow("merge-reset", "merge reset Mod", func(m *sched.BarrierMsg, g int32) {
			m.Merges = append(m.Merges, sched.WireMergeReset{Mod: -1, Expected: 1})
		}),
	}
	rows = append(rows, rowRows(simKindBoard, "board row Mod",
		func(msg any) *[]sched.WireBoardRow { return &msg.(*sched.BoardMsg).Rows },
		func(r *sched.WireBoardRow) *int32 { return &r.Mod })...)
	rows = append(rows, rowRows(simKindScale, "scale row Mod",
		func(msg any) *[]sched.WireScaleRow { return &msg.(*sched.ScaleMsg).Rows },
		func(r *sched.WireScaleRow) *int32 { return &r.Mod })...)
	rows = append(rows, rowRows(simKindFinish, "report Mod",
		func(msg any) *[]sched.ModuleReport { return &msg.(*sched.FinishMsg).Reports },
		func(r *sched.ModuleReport) *int32 { return &r.Mod })...)
	return rows
}

// tamperTransport sends lane group g's first message of row.kind that the
// rewrite changes in its rewritten form. The group's own replica reads its
// honest message back, so whatever fails is the peer reading the rewrite.
type tamperTransport struct {
	sched.Transport
	g    int
	row  hostileRow
	done bool
}

func tamper[T any](t *tamperTransport, kind uint8, m T, send func(T) ([]T, error)) ([]T, error) {
	bad := m
	if t.done || t.row.kind != kind || !t.row.rewrite(&bad, t.g) {
		return send(m)
	}
	t.done = true
	all, err := send(bad)
	if err == nil {
		all[t.g] = m
	}
	return all, err
}

func (t *tamperTransport) Barrier(m sched.BarrierMsg) ([]sched.BarrierMsg, error) {
	return tamper(t, simKindBarrier, m, t.Transport.Barrier)
}

func (t *tamperTransport) Board(m sched.BoardMsg) ([]sched.BoardMsg, error) {
	return tamper(t, simKindBoard, m, t.Transport.Board)
}

func (t *tamperTransport) Scale(m sched.ScaleMsg) ([]sched.ScaleMsg, error) {
	return tamper(t, simKindScale, m, t.Transport.Scale)
}

func (t *tamperTransport) Finish(m sched.FinishMsg) ([]sched.FinishMsg, error) {
	return tamper(t, simKindFinish, m, t.Transport.Finish)
}

// hostileConfig runs long enough for sync ticks (board) and two scaling
// ticks (scale) on a five-module chain: group 0 owns modules 0, 2 and 4,
// group 1 owns 1 and 3.
func hostileConfig() simgpu.Config {
	return simgpu.Config{
		Spec: pipeline.LV(), PolicyName: "pard",
		Trace: simTrace(trace.Steady, 80, 3), Seed: 5,
		SyncPeriod: 200 * time.Millisecond,
	}
}

// wantRefusal requires err to name the field and the lane group that sent it.
func wantRefusal(t *testing.T, err error, sender int, row hostileRow) {
	t.Helper()
	want := "lane group " + strconv.Itoa(sender) + ": " + row.field
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want one naming %q", err, want)
	}
}

// TestHostileModuleIndicesRefused is the table: every row, once as a spoke
// the hub reads and once as a hub a spoke reads.
func TestHostileModuleIndicesRefused(t *testing.T) {
	lib := profile.DefaultLibrary()
	for _, row := range hostileRows() {
		t.Run("hub-reads-spoke/"+row.name, func(t *testing.T) {
			hubSide, spokeSide := net.Pipe()
			go func() {
				defer spokeSide.Close()
				p, err := acceptSession(spokeSide, 10*time.Second)
				if err != nil {
					return
				}
				spoke := &simSpoke{}
				r, err := buildLaneGroup(p.hello, &tamperTransport{Transport: spoke, g: 1, row: row})
				if err != nil {
					p.refuse(err.Error())
					return
				}
				spoke.simSession = newSimSession([]*framed{p.f}, wireShape{mods: p.hello.Job.Spec.N(), groups: 2}, 20*time.Second)
				if p.accept(0) == nil {
					r.Run()
				}
			}()
			_, err := RunSimDistributed(hostileConfig(), []net.Conn{hubSide}, SimOptions{exchangeTimeout: 20 * time.Second})
			wantRefusal(t, err, 1, row)
		})
		t.Run("spoke-reads-hub/"+row.name, func(t *testing.T) {
			hubSide, spokeSide := net.Pipe()
			served := make(chan error, 1)
			go func() {
				_, err := ServeSim(spokeSide, SimOptions{exchangeTimeout: 20 * time.Second})
				served <- err
			}()
			cfg := hostileConfig()
			job := jobFromConfig(cfg)
			f, _, err := openSession(hubSide, 10*time.Second, Hello{LibraryFP: lib.Fingerprint(), Groups: 2, Group: 1, Job: &job})
			if err != nil {
				t.Fatal(err)
			}
			hub := &simHub{newSimSession([]*framed{f}, wireShape{mods: cfg.Spec.N(), groups: 2}, 20*time.Second)}
			cfg.Lib = lib
			cfg.Remote = &simgpu.RemoteTopology{Groups: 2, Group: 0, Transport: &tamperTransport{Transport: hub, g: 0, row: row}}
			simgpu.Run(cfg) // ends when the spoke hangs up, or at the finish
			hubSide.Close()
			wantRefusal(t, within(t, "the spoke", served), 0, row)
		})
	}
}

// TestRunSimDistributedNeedsSpec: the hub sizes its checks from the spec's
// module count, so a config without one is refused before any peer is
// contacted — whatever the peer would have accepted.
func TestRunSimDistributedNeedsSpec(t *testing.T) {
	hubSide, spokeSide := net.Pipe()
	defer spokeSide.Close()
	if _, err := RunSimDistributed(simgpu.Config{}, []net.Conn{hubSide}, SimOptions{}); err == nil || !strings.Contains(err.Error(), "pipeline spec") {
		t.Fatalf("RunSimDistributed without a spec = %v, want a refusal naming the spec", err)
	}
}
