//go:build unix

package dist

import (
	"context"
	"net"
	"os"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// reservedPort binds a loopback TCP port without listening on it: dials to it
// are refused, and no other socket can take the port in the meantime. listen
// starts listening on that same socket.
func reservedPort(t *testing.T) (addr string, listen func() net.Listener) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := true
	t.Cleanup(func() {
		if owned {
			syscall.Close(fd)
		}
	})
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr = net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	return addr, func() net.Listener {
		t.Helper()
		if err := syscall.Listen(fd, syscall.SOMAXCONN); err != nil {
			t.Fatal(err)
		}
		owned = false
		f := os.NewFile(uintptr(fd), addr)
		defer f.Close()
		l, err := net.FileListener(f)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
}

// TestJoinRetriesUntilCoordinatorListens: a worker started before its
// coordinator keeps redialing and joins once the coordinator listens; one
// whose coordinator never comes gives up after the handshake timeout.
func TestJoinRetriesUntilCoordinatorListens(t *testing.T) {
	addr, listen := reservedPort(t)

	start := time.Now()
	if err := Join(addr, WorkerConfig{Workers: 1, handshakeTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Join succeeded with no coordinator listening")
	} else if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Join gave up after %v, want about the 200 ms handshake timeout", elapsed)
	}

	joined := make(chan error, 1)
	go func() { joined <- Join(addr, WorkerConfig{Workers: 1}) }()
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-joined:
		t.Fatalf("Join gave up before the coordinator listened: %v", err)
	default:
	}
	l := listen()
	c := NewCoordinator(CoordinatorConfig{Engine: testEngine()})
	listenOn(t, c, l)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rs, err := c.Sweep(ctx, tinyGrid())
	c.Close()
	if err != nil || len(rs) != 2 {
		t.Fatalf("sweep over the late-joined worker: %d results, %v", len(rs), err)
	}
	if err := within(t, "the joined worker after Close", joined); err != nil {
		t.Fatalf("joined worker exited with %v after a clean close", err)
	}
}
