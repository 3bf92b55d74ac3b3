// Command pard-worker serves cluster work for whoever opens a session on it:
// sweep work units for a pard-bench coordinator (-workers/-listen) and
// simulation lane groups for a pard-sim hub (-hosts). The opener's handshake
// says which; the worker takes no mode.
//
// Usage:
//
//	pard-worker -listen :7070            # wait for coordinators and hubs to dial in
//	pard-worker -join coord-host:7070    # dial a listening coordinator
//	pard-worker -listen :7070 -parallel 8 -cache-dir /shared/pard-cache
//
// The worker is stateless: base seed and trace duration arrive in the
// coordinator's handshake, every unit's seed derives from its cache key,
// and results stream back as gob frames — so a grid computed here is
// byte-identical to the same grid computed anywhere else. The worker
// re-derives each unit's key from its spec and refuses a unit whose key
// differs (a coordinator from another version), and peers speaking another
// dist.ProtoVersion are refused at the handshake. A -cache-dir on
// shared storage turns finished units into a cluster-wide artifact store:
// units already present (from an earlier run, another worker, or a
// pre-seeded volume) are served without re-execution and reported to the
// coordinator as cache hits, and a corrupt entry is quarantined and
// recomputed rather than failing the unit. A simulation hub ships the whole
// run configuration in its handshake; the lane group runs to completion in
// lockstep with the hub, which is the one that reports the (bit-identical)
// result. -parallel and -cache-dir do not apply to it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"pard/internal/dist"
	"pard/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pard-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pard-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "listen address for sweep coordinators and simulation hubs (e.g. :7070)")
	join := fs.String("join", "", "coordinator address to dial (host:port); redialed for up to 10s until it listens")
	parallel := fs.Int("parallel", 0, "concurrent unit executions (0 = all CPU cores); advertised as capacity")
	cacheDir := fs.String("cache-dir", "", "persist finished units here (share it across the cluster for a common artifact store)")
	once := fs.Bool("once", false, "with -listen: serve a single connection, then exit")
	quiet := fs.Bool("quiet", false, "suppress per-unit logging")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if (*listen == "") == (*join == "") {
		return errors.New("exactly one of -listen or -join is required")
	}
	if *cacheDir != "" {
		// Preflight: a bad cache dir should fail here with a clear message,
		// not surface to every coordinator as an opaque dropped handshake.
		if err := sweep.New(sweep.Config{CacheDir: *cacheDir}).DiskError(); err != nil {
			return err
		}
	}
	cfg := dist.WorkerConfig{Workers: *parallel, CacheDir: *cacheDir}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	if *join != "" {
		fmt.Fprintf(stderr, "pard-worker: joining coordinator at %s\n", *join)
		return dist.Join(*join, cfg)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	// The resolved address matters when -listen binds port 0 (tests, ad-hoc
	// clusters): print it where orchestration can read it.
	fmt.Fprintf(stderr, "pard-worker: listening on %s\n", l.Addr())
	if *once {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		return dist.ServeConn(conn, cfg)
	}
	return dist.Serve(l, cfg)
}
