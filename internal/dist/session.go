package dist

import (
	"errors"
	"fmt"
	"net"
	"time"

	"pard/internal/profile"
)

// Opening a session. Every dist connection starts with one round trip in
// wire.go's binary format: the side that brings the work — a sweep
// coordinator, a simulation hub — sends a Hello, the side that serves answers
// with a HelloAck. The hello says which kind of session it opens (Job set: one
// lane group of a simulation; otherwise sweep units), so one listener serves
// both. openSession and acceptSession are the only places a protocol version
// or a library fingerprint is compared; what follows the handshake — and what
// a failure means there — belongs to the session kind (coordinator.go/
// worker.go, sim.go).

// Hello opens a session. Proto and LibraryFP guard it: profiles travel in
// neither unit keys nor simulation jobs, so a peer simulating different
// latency curves must be refused, not silently merged. A sweep hello carries
// what a worker needs to reproduce the coordinator's derivation of per-run
// seeds and traces (BaseSeed, TraceDuration); a simulation hello carries the
// lane group this peer is assigned (Group of Groups) and the job itself.
type Hello struct {
	Proto         int
	LibraryFP     uint64
	BaseSeed      int64
	TraceDuration time.Duration
	Groups        int
	Group         int
	Job           *SimJob
}

// HelloAck completes the handshake. Proto and LibraryFP are the serving
// side's own, so both ends can name a mismatch. Capacity advertises how many
// sweep units the worker runs concurrently; the coordinator keeps at most that
// many outstanding on the connection. A non-empty Err means the peer refuses
// to serve (version or library skew, a broken cache dir, a lane group out of
// range, the wrong kind of session) and says why instead of just dropping the
// stream.
type HelloAck struct {
	Proto     int
	LibraryFP uint64
	Capacity  int
	Err       string
}

// openSession opens a session on conn from the side that brings the work:
// send hello (Proto is filled in here), read the ack, refuse a peer of another
// version, one that refuses us, or one with other profiles. A positive timeout
// bounds the round trip. It returns the framed connection and the capacity
// the peer advertised; the connection stays the caller's to close.
func openSession(conn net.Conn, timeout time.Duration, hello Hello) (*framed, int, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	f := newFramed(conn)
	hello.Proto = ProtoVersion
	if err := f.writeFrame(appendHello(make([]byte, frameHeaderLen, helloCap(hello)), hello)); err != nil {
		return nil, 0, fmt.Errorf("dist: handshake: %w", err)
	}
	var ack HelloAck
	payload, err := f.readFrame(0)
	if err == nil {
		err = decodeHelloAck(payload, &ack)
	}
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("dist: handshake: %w", err)
	case ack.Err != "":
		return nil, 0, fmt.Errorf("dist: handshake: peer refused the session: %s", ack.Err)
	case ack.LibraryFP != hello.LibraryFP:
		return nil, 0, fmt.Errorf("dist: handshake: model-profile library mismatch (this side %016x, peer %016x): results would silently diverge", hello.LibraryFP, ack.LibraryFP)
	}
	conn.SetDeadline(time.Time{})
	return f, ack.Capacity, nil
}

// pendingSession is a session whose hello passed the version and library
// gates and awaits the serving side's verdict: accept or refuse.
type pendingSession struct {
	f     *framed
	hello Hello
	fp    uint64
}

// acceptSession reads the hello of whoever opened conn and refuses a
// malformed one, another protocol version or a profile library other than
// the default one every worker serves. A
// positive timeout bounds the whole handshake, up to accept: without it a port
// scanner — or any peer that connects and sends nothing — would pin the server
// forever.
func acceptSession(conn net.Conn, timeout time.Duration) (*pendingSession, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	p := &pendingSession{f: newFramed(conn), fp: profile.Default().Fingerprint()}
	payload, err := p.f.readFrame(0)
	if err != nil {
		return nil, fmt.Errorf("dist: handshake: %w", err)
	}
	if err := decodeHello(payload, &p.hello); err != nil {
		return nil, p.refuse(err.Error())
	}
	if p.hello.LibraryFP != p.fp {
		return nil, p.refuse(fmt.Sprintf("model-profile library mismatch (this side %016x, peer %016x)", p.fp, p.hello.LibraryFP))
	}
	return p, nil
}

// refuse tells the peer why it is not served — best effort, so that it
// reports the reason too instead of a dropped stream — and returns the
// refusal as this side's error.
func (p *pendingSession) refuse(reason string) error {
	_ = p.sendAck(HelloAck{Err: reason})
	return errors.New("dist: handshake refused: " + reason)
}

// accept completes the handshake and lifts its deadline; the session's own
// traffic follows on p.f.
func (p *pendingSession) accept(capacity int) error {
	if err := p.sendAck(HelloAck{Capacity: capacity}); err != nil {
		return fmt.Errorf("dist: handshake: %w", err)
	}
	p.f.conn.SetDeadline(time.Time{})
	return nil
}

// sendAck sends ack as this side's: its protocol version and fingerprint.
func (p *pendingSession) sendAck(ack HelloAck) error {
	ack.Proto, ack.LibraryFP = ProtoVersion, p.fp
	return p.f.writeFrame(appendHelloAck(make([]byte, frameHeaderLen), ack))
}
