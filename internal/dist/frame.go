package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Framing layer: every message on a dist connection travels as one
// length-prefixed frame — a 4-byte big-endian payload length followed by the
// payload — written by writeFrame and read by readFrame, the only two
// functions that touch the connection. The prefix buys two things a bare
// stream cannot offer:
//
//   - a max-frame guard: a corrupt or hostile header announcing a huge
//     payload is rejected from four bytes, and a plausible one allocates
//     nothing ahead of the bytes the peer has actually sent (see fill);
//   - deadline hygiene: a frame is read in bounded steps, so per-read
//     deadlines compose cleanly with lockstep exchanges that must detect a
//     dead peer.
//
// One framing, one payload encoding: every frame — the handshake, a sweep
// session's work units and results, a simulation session's lockstep
// exchanges — carries a message in the binary codec of wire.go, encoded
// after frameHeaderLen bytes of room so that writeFrame sends it in one
// write.

// MaxFrameLen bounds one frame's payload. Sweep results and barrier batches
// are megabytes at the extreme; 64 MiB is an order of magnitude of headroom,
// while still refusing the pathological 4 GiB header a scanner or corrupt
// peer could present.
const MaxFrameLen = 64 << 20

// frameHeaderLen is the length-prefix size.
const frameHeaderLen = 4

// framed wraps a net.Conn with the frame discipline. Sends are serialized
// by an internal lock (multiple goroutines may report results on one
// connection); receives must come from a single reader goroutine.
type framed struct {
	conn net.Conn
	wmu  sync.Mutex

	// The receive buffer: rx[rpos:rend] holds bytes read from the connection
	// and not yet consumed.
	rx         []byte
	rpos, rend int
}

func newFramed(conn net.Conn) *framed { return &framed{conn: conn} }

// writeFrame sends b — frameHeaderLen bytes of room for the prefix, then an
// already encoded payload — as one frame in one write, atomically with respect
// to other senders on this connection. The caller owns b and may reuse it.
func (f *framed) writeFrame(b []byte) error {
	n := len(b) - frameHeaderLen
	if n > MaxFrameLen {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte limit", n, MaxFrameLen)
	}
	binary.BigEndian.PutUint32(b[:frameHeaderLen], uint32(n))
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if _, err := f.conn.Write(b); err != nil {
		return fmt.Errorf("writing frame: %w", err)
	}
	return nil
}

// readFrame returns the next frame's payload, valid until the next call. It
// reads through the connection's one receive buffer, which grows towards
// the largest frame seen: a frame that arrives whole costs one read and no
// allocation. A positive timeout arms a read deadline covering the whole frame
// (header and payload) and clears it afterwards; zero blocks indefinitely (the
// idle sweep-worker posture, where "no work for hours" is normal and the
// connection closing is the wakeup).
func (f *framed) readFrame(timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		if err := f.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("arming read deadline: %w", err)
		}
		defer f.conn.SetReadDeadline(time.Time{})
	}
	if err := f.fill(frameHeaderLen); err != nil {
		return nil, err
	}
	announced := binary.BigEndian.Uint32(f.rx[f.rpos:])
	if announced > MaxFrameLen {
		return nil, fmt.Errorf("peer announced a %d-byte frame (limit %d): corrupt stream or hostile peer", announced, MaxFrameLen)
	}
	n := int(announced)
	if err := f.fill(frameHeaderLen + n); err != nil {
		return nil, fmt.Errorf("reading %d-byte frame payload: %w", n, err)
	}
	payload := f.rx[f.rpos+frameHeaderLen : f.rpos+frameHeaderLen+n]
	f.rpos += frameHeaderLen + n
	return payload, nil
}

// rxInitial is the receive buffer's first size: room for any barrier frame,
// so only board and finish frames ever grow it.
const rxInitial = 4 << 10

// fill reads until at least need unconsumed bytes are buffered. The buffer
// doubles only once it is full of unconsumed bytes, so what a connection
// allocates follows what its peer has actually sent, not what a header
// announced.
func (f *framed) fill(need int) error {
	for f.rend-f.rpos < need {
		if f.rpos == f.rend {
			f.rpos, f.rend = 0, 0 // the lockstep steady state: nothing left over
		}
		if f.rend == len(f.rx) {
			buf := f.rx
			if f.rpos == 0 {
				buf = make([]byte, max(2*len(buf), rxInitial))
			}
			f.rend = copy(buf, f.rx[f.rpos:f.rend])
			f.rpos, f.rx = 0, buf
		}
		n, err := f.conn.Read(f.rx[f.rend:])
		f.rend += n
		if err != nil && f.rend-f.rpos < need {
			if err == io.EOF && f.rend > f.rpos {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Close closes the underlying connection (unblocking any pending read).
func (f *framed) Close() error { return f.conn.Close() }
