package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestFrameRoundTrip pins the framing layer in isolation: a message sent as
// one frame decodes identically on the far end, and consecutive frames on
// one stream stay self-delimiting.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fa, fb := newFramed(a), newFramed(b)
	want := Hello{Proto: ProtoVersion, BaseSeed: 42, TraceDuration: 9 * time.Second, LibraryFP: 0xfeed}
	errc := make(chan error, 1)
	go func() {
		if err := sendHello(fa, want); err != nil {
			errc <- err
			return
		}
		errc <- sendAck(fa, HelloAck{Proto: ProtoVersion, Capacity: 3})
	}()
	got, err := recvHello(fb, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("frame round trip: got %+v, want %+v", got, want)
	}
	ack, err := recvAck(fb, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Capacity != 3 {
		t.Fatalf("second frame: got %+v", ack)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestMixedFramesOneBuffer: frames of every message kind share one receive
// buffer, so a connection may mix them in any order — here a hello, a work
// unit and an ack arrive in one write, and each read finds its frame where
// the previous one stopped.
func TestMixedFramesOneBuffer(t *testing.T) {
	var stream bytes.Buffer
	w := newFramed(streamConn{w: &stream})
	unit := WorkUnit{Epoch: 2, ID: 5, Key: "run|k"}
	if err := errors.Join(sendHello(w, Hello{Proto: ProtoVersion, Group: 1}), sendUnit(w, unit), sendAck(w, HelloAck{Proto: ProtoVersion, Capacity: 3})); err != nil {
		t.Fatal(err)
	}
	r := newFramed(streamConn{r: bytes.NewReader(stream.Bytes())})
	if h, err := recvHello(r, time.Second); err != nil || h.Group != 1 {
		t.Fatalf("hello frame: %+v, %v", h, err)
	}
	var u WorkUnit
	if err := recvUnit(r, &u, time.Second); err != nil || u.ID != unit.ID || u.Key != unit.Key {
		t.Fatalf("unit frame after a hello: %+v, %v", u, err)
	}
	if ack, err := recvAck(r, time.Second); err != nil || ack.Capacity != 3 {
		t.Fatalf("ack frame after a unit: %+v, %v", ack, err)
	}
}

// TestOversizedFrameHeaderRejected is the max-frame guard's unit proof: a
// header announcing a payload beyond MaxFrameLen is refused from the four
// header bytes alone — before any payload allocation — with an error naming
// the limit.
func TestOversizedFrameHeaderRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := recvHello(newFramed(b), 2*time.Second)
		errc <- err
	}()
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(0xFFFFFFFF)) // a 4 GiB lie
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil {
		t.Fatal("oversized frame header was accepted")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("rejection should name the frame limit, got: %v", err)
	}
}

// TestOversizedFrameRefusedByWorker proves the guard holds on the real
// protocol surface, not just the framed helper: a peer opening a worker
// connection with a hostile length prefix is dropped with a loud handshake
// error instead of an allocation.
func TestOversizedFrameRefusedByWorker(t *testing.T) {
	coordSide, workerSide := net.Pipe()
	defer coordSide.Close()
	done := make(chan error, 1)
	go func() { done <- ServeConn(workerSide, WorkerConfig{Workers: 1}) }()
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameLen+1)
	if _, err := coordSide.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil {
		t.Fatal("worker served a connection that opened with an oversized frame")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("worker rejection should name the frame limit, got: %v", err)
	}
}

// TestSendRefusesOversizedFrame pins the symmetric send-side guard: a
// payload that would overflow the length prefix is refused locally before a
// single byte reaches the connection.
func TestSendRefusesOversizedFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a > MaxFrameLen payload")
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	f := newFramed(a)
	// net.Pipe writes block until read; send returning at all proves the
	// refusal happened before the write.
	err := sendResult(f, UnitResult{Err: strings.Repeat("x", MaxFrameLen+1)})
	if err == nil {
		t.Fatal("oversized frame was sent")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("send rejection should name the frame limit, got: %v", err)
	}
}
