package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pard/internal/profile"
	"pard/internal/sched"
	"pard/internal/sweep"
)

// The handshake as a hand-rolled peer speaks it: one hello or ack per frame,
// through the codec openSession and acceptSession use.

func sendHello(f *framed, h Hello) error {
	return f.writeFrame(appendHello(make([]byte, frameHeaderLen), h))
}

func recvHello(f *framed, timeout time.Duration) (Hello, error) {
	var h Hello
	payload, err := f.readFrame(timeout)
	if err == nil {
		err = decodeHello(payload, &h)
	}
	return h, err
}

func sendAck(f *framed, a HelloAck) error {
	return f.writeFrame(appendHelloAck(make([]byte, frameHeaderLen), a))
}

func recvAck(f *framed, timeout time.Duration) (HelloAck, error) {
	var a HelloAck
	payload, err := f.readFrame(timeout)
	if err == nil {
		err = decodeHelloAck(payload, &a)
	}
	return a, err
}

// The sweep session as a hand-rolled peer speaks it: one work unit or unit
// result per frame, through the codec the coordinator and worker use.

func sendUnit(f *framed, u WorkUnit) error {
	return f.writeFrame(appendWorkUnit(make([]byte, frameHeaderLen), u))
}

func recvUnit(f *framed, u *WorkUnit, timeout time.Duration) error {
	payload, err := f.readFrame(timeout)
	if err == nil {
		err = decodeWorkUnit(payload, u)
	}
	return err
}

func sendResult(f *framed, r UnitResult) error {
	return f.writeFrame(appendUnitResult(make([]byte, frameHeaderLen), r))
}

func recvResult(f *framed, r *UnitResult, timeout time.Duration) error {
	payload, err := f.readFrame(timeout)
	if err == nil {
		err = decodeUnitResult(payload, r)
	}
	return err
}

// gobSend and gobRecv frame a message as peers of version 5 and older spoke
// the handshake, and peers of version 9 and older the sweep session: gob, a
// fresh encoder per frame.
func gobSend(f *framed, v any) error {
	buf := bytes.NewBuffer(make([]byte, frameHeaderLen))
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	return f.writeFrame(buf.Bytes())
}

func gobRecv(f *framed, v any, timeout time.Duration) error {
	payload, err := f.readFrame(timeout)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
	}
	return err
}

// helloFrameLen and ackFrameLen are the bytes a hello or an ack puts on the
// connection, frame header included.
func helloFrameLen(h Hello) int { return frameHeaderLen + len(appendHello(nil, h)) }

func ackFrameLen(a HelloAck) int { return frameHeaderLen + len(appendHelloAck(nil, a)) }

// sweepHello is the hello a coordinator built on eng sends.
func sweepHello(eng *sweep.Engine) Hello {
	cfg := eng.Config()
	return Hello{Proto: ProtoVersion, LibraryFP: profile.Default().Fingerprint(), BaseSeed: cfg.BaseSeed, TraceDuration: cfg.TraceDuration}
}

// simHellos are the hellos a hub sends to the first spoke of every run in the
// simulation corpus: four apps, both DAG variants, probes, failures.
func simHellos() []Hello {
	fp := profile.DefaultLibrary().Fingerprint()
	var hellos []Hello
	for _, c := range simCorpus() {
		job := jobFromConfig(c.cfg)
		hellos = append(hellos, Hello{Proto: ProtoVersion, LibraryFP: fp, Groups: 2, Group: 1, Job: &job})
	}
	return hellos
}

// gobHello is the hello payload a version 5 peer sends: gob, under the same
// type name.
func gobHello(t testing.TB, h Hello) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lastGobProto is the last protocol version whose handshake was gob.
const lastGobProto = 5

// peerHello sends h as a peer of version h.Proto would: gob up to
// lastGobProto, binary after.
func peerHello(f *framed, h Hello) error {
	if h.Proto <= lastGobProto {
		return gobSend(f, h)
	}
	return sendHello(f, h)
}

// peerServer plays the serving end of a handshake for a peer of version
// proto. A gob peer hangs up on a hello its gob decoder cannot read, as it
// cannot this version's; otherwise the peer acks with its own version. It
// returns the peer's read error, if any.
func peerServer(conn net.Conn, proto int, timeout time.Duration) error {
	f := newFramed(conn)
	if proto <= lastGobProto {
		var h Hello
		if err := gobRecv(f, &h, timeout); err != nil {
			conn.Close()
			return err
		}
		return gobSend(f, HelloAck{Proto: proto, LibraryFP: h.LibraryFP, Capacity: 1})
	}
	h, err := recvHello(f, timeout)
	if err != nil {
		return err
	}
	return sendAck(f, HelloAck{Proto: proto, LibraryFP: h.LibraryFP, Capacity: 1})
}

// checkRefusalAck reads the ack a server sent to refuse a peer of version
// proto and requires the peer to report it cleanly: a gob peer fails to
// decode it, a later one reads this side's version and the reason.
func checkRefusalAck(t *testing.T, f *framed, proto int, reason string) {
	t.Helper()
	if proto <= lastGobProto {
		var ack HelloAck
		if err := gobRecv(f, &ack, 5*time.Second); err == nil {
			t.Fatalf("a version %d peer decoded this side's ack as %+v", proto, ack)
		}
		return
	}
	ack, err := recvAck(f, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Proto != ProtoVersion || !strings.Contains(ack.Err, reason) {
		t.Fatalf("refusal ack should carry this side's version and the reason, got %+v", ack)
	}
}

// fillLeaves sets every leaf reachable from v non-zero, every number and
// string to a value no other leaf has: pointers get a target, slices two
// elements, structs every field. A field added later to any type under
// Hello is filled too, whatever its type, or the test names it.
func fillLeaves(t *testing.T, v reflect.Value, path string, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(t, v.Elem(), path, next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the handshake codec cannot carry it", path, f.Name)
			}
			fillLeaves(t, v.Field(i), path+"."+f.Name, next)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(*next * 1_000_003)
	case reflect.Uint64:
		v.SetUint(uint64(*next) << 40)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	default:
		t.Fatalf("%s: no non-zero %v to fill", path, v.Type())
	}
}

// TestHelloCarriesEveryField: gob carried every field by name, and a hand
// codec drops what it forgets. Every leaf under Hello — the SimJob, its spec
// and modules, trace, probes and failures — is set non-zero and must
// survive encode and decode; so must every field of HelloAck.
func TestHelloCarriesEveryField(t *testing.T) {
	var next int64
	var h Hello
	fillLeaves(t, reflect.ValueOf(&h).Elem(), "Hello", &next)
	h.Proto = ProtoVersion
	var got Hello
	if err := decodeHello(appendHello(nil, h), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("a hello field does not survive the codec:\n sent %+v\n job  %+v\n got  %+v\n job  %+v", h, *h.Job, got, *got.Job)
	}

	var a HelloAck
	fillLeaves(t, reflect.ValueOf(&a).Elem(), "HelloAck", &next)
	a.Proto = ProtoVersion
	var gotAck HelloAck
	if err := decodeHelloAck(appendHelloAck(nil, a), &gotAck); err != nil {
		t.Fatal(err)
	}
	if gotAck != a {
		t.Fatalf("an ack field does not survive the codec: sent %+v, got %+v", a, gotAck)
	}
}

// TestHelloMatchesGob keeps gob as an independent oracle: every real hello —
// a sweep's, and one per simulation-corpus job as it is and with every probe,
// fixed workers and failures armed — decodes from the binary
// codec exactly as its gob round trip does (empty slices as nil under both),
// and re-encodes to the identical bytes.
func TestHelloMatchesGob(t *testing.T) {
	hellos := append(simHellos(), sweepHello(testEngine()))
	for _, h := range simHellos() {
		j := *h.Job
		j.Probes = sched.ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true, SampleEvery: 3}
		j.FixedWorkers = make([]int, j.Spec.N())
		for k := range j.FixedWorkers {
			j.FixedWorkers[k] = k + 2
		}
		j.Failures = []sched.Failure{{At: time.Second, Module: 1, Count: 1}, {At: 3 * time.Second, Module: 0, Count: 2}}
		h.Job = &j
		hellos = append(hellos, h)
	}
	for _, h := range hellos {
		name := "sweep"
		if h.Job != nil {
			name = fmt.Sprintf("%s/%s/failures=%d", h.Job.Spec.App, h.Job.PolicyName, len(h.Job.Failures))
		}
		var viaGob Hello
		if err := gob.NewDecoder(bytes.NewReader(gobHello(t, h))).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		payload := appendHello(nil, h)
		var got Hello
		if err := decodeHello(payload, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, viaGob) {
			t.Fatalf("%s: the binary hello decodes to\n %+v\nwhere gob gives\n %+v", name, got, viaGob)
		}
		if !bytes.Equal(appendHello(nil, got), payload) {
			t.Fatalf("%s: a decoded hello re-encodes to different bytes", name)
		}
	}
}

// TestHelloDecodeFailsClosed: a hello or ack that is truncated, padded,
// carries trailing bytes or a count its bytes cannot back is an error, and a
// payload of another version stops at the version.
func TestHelloDecodeFailsClosed(t *testing.T) {
	sim := appendHello(nil, simHellos()[0])
	sweepH := appendHello(nil, sweepHello(testEngine()))
	var huge []byte
	huge = appendHello(huge, Hello{Proto: ProtoVersion})
	huge = append(huge[:len(huge)-1], 1, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f) // a job whose spec claims 2^32-1 modules
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "truncated"},
		{"truncated-sweep", sweepH[:len(sweepH)-1], "truncated"},
		{"truncated-sim", sim[:len(sim)/2], "truncated"},
		{"trailing", append(bytes.Clone(sweepH), 0), "trailing"},
		{"job-byte-2", append(bytes.Clone(sweepH[:len(sweepH)-1]), 2), "boolean"},
		{"huge-count", huge, "exceeds"},
		{"padded-version", append([]byte{0x8c, 0x00}, sweepH[1:]...), "varint"},
		{"future", appendHello(nil, Hello{Proto: ProtoVersion + 1}), fmt.Sprintf("this side speaks %d, the peer %d", ProtoVersion, ProtoVersion+1)},
		{"gob-v5", gobHello(t, Hello{Proto: 5}), "version mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Hello
			if err := decodeHello(tc.payload, &h); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
	ack := appendHelloAck(nil, HelloAck{Proto: ProtoVersion, Err: "no"})
	var gobAck bytes.Buffer
	if err := gob.NewEncoder(&gobAck).Encode(HelloAck{Proto: 5, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	var a HelloAck
	for _, bad := range [][]byte{ack[:len(ack)-1], append(bytes.Clone(ack), 0), gobAck.Bytes()} {
		if err := decodeHelloAck(bad, &a); err == nil {
			t.Fatalf("ack %x decoded", bad)
		}
	}
}

// helloElems counts every slice element and string byte a decoded hello or
// ack holds.
func helloElems(h *Hello, a *HelloAck) int {
	n := len(a.Err)
	if j := h.Job; j != nil {
		n += len(j.PolicyName) + len(j.FixedWorkers) + len(j.Failures)
		if s := j.Spec; s != nil {
			n += len(s.App) + len(s.Modules)
			for _, m := range s.Modules {
				n += len(m.Name) + len(m.Pres) + len(m.Subs) + len(m.BranchProb)
			}
		}
		if tr := j.Trace; tr != nil {
			n += len(tr.Name) + len(tr.Arrivals)
		}
	}
	return n
}

// FuzzHello fuzzes the first decoder a stranger reaches on a listening
// worker, and the one a dialing coordinator or hub reaches next: the hello
// and the ack. Arbitrary bytes must never panic, never decode into more
// elements than they have bytes, and whatever decodes must re-encode to the
// identical bytes. A hello that decodes with a job then meets the spoke's
// own validation: it is refused there, or its lane group builds, and either
// way nothing panics.
func FuzzHello(f *testing.F) {
	f.Add(appendHello(nil, sweepHello(testEngine())))
	for _, h := range simHellos() {
		f.Add(appendHello(nil, h))
	}
	// A job that pins its workers: the one switch that turns scaling off.
	pinned := simHellos()[0]
	job := *pinned.Job
	job.FixedWorkers = make([]int, job.Spec.N())
	for k := range job.FixedWorkers {
		job.FixedWorkers[k] = 2
	}
	pinned.Job = &job
	f.Add(appendHello(nil, pinned))
	lib := profile.DefaultLibrary()
	for _, bj := range badJobs() {
		job := jobFromConfig(bj.cfg)
		f.Add(appendHello(nil, Hello{Proto: ProtoVersion, LibraryFP: lib.Fingerprint(), Groups: 2, Group: 1, Job: &job}))
	}
	f.Add(appendHelloAck(nil, HelloAck{Proto: ProtoVersion, LibraryFP: math.MaxUint64, Capacity: 4}))
	f.Add(appendHelloAck(nil, HelloAck{Proto: ProtoVersion, Err: "lane group 2/2 out of range"}))
	f.Add(gobHello(f, Hello{Proto: 5, BaseSeed: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // keep adversarial inputs cheap
		}
		var h Hello
		if decodeHello(data, &h) == nil {
			if n := helloElems(&h, &HelloAck{}); n > len(data) {
				t.Fatalf("hello: %d decoded elements from %d bytes", n, len(data))
			}
			if again := appendHello(nil, h); !bytes.Equal(again, data) {
				t.Fatalf("hello decodes but re-encodes differently:\n in  %x\n out %x", data, again)
			}
			if h.Job != nil {
				buildLaneGroup(h, &simSpoke{})
			}
		}
		var a HelloAck
		if decodeHelloAck(data, &a) == nil {
			if n := helloElems(&Hello{}, &a); n > len(data) {
				t.Fatalf("ack: %d decoded elements from %d bytes", n, len(data))
			}
			if again := appendHelloAck(nil, a); !bytes.Equal(again, data) {
				t.Fatalf("ack decodes but re-encodes differently:\n in  %x\n out %x", data, again)
			}
		}
	})
}

// TestAllocsHandshake pins what opening a session costs both ends, so gob —
// several hundred allocations a handshake — cannot creep back: the hub's
// open and the spoke's accept of a DA simulation job over net.Pipe, counted
// together. Most of what is left is the decoded job itself (spec, modules,
// their edges, the trace) and the library fingerprint on each end.
func TestAllocsHandshake(t *testing.T) {
	var job SimJob
	for _, c := range simCorpus() {
		if c.name == "da-dag-pard" {
			job = jobFromConfig(c.cfg)
		}
	}
	lib := profile.DefaultLibrary()
	hello := Hello{LibraryFP: lib.Fingerprint(), Groups: 2, Group: 1, Job: &job}
	open := func() {
		hubSide, spokeSide := net.Pipe()
		defer hubSide.Close()
		defer spokeSide.Close()
		accepted := make(chan error, 1)
		go func() {
			p, err := acceptSession(spokeSide, 0)
			if err == nil {
				err = p.accept(0)
			}
			accepted <- err
		}()
		if _, _, err := openSession(hubSide, 0, hello); err != nil {
			t.Fatal(err)
		}
		if err := <-accepted; err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 50
	if avg := testing.AllocsPerRun(20, open); avg > ceiling {
		t.Fatalf("open + accept of a DA job allocates %.0f, want at most %d", avg, ceiling)
	} else {
		t.Logf("open + accept of a DA job: %.0f allocations", avg)
	}
}
