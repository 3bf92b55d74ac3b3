package sweep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pard/internal/simgpu"
	"pard/internal/trace"
	"pard/internal/wire"
)

// diskFormat versions the on-disk entry layout; bump it whenever the
// serialized types or the simulation semantics change incompatibly, and
// stale entries simply stop matching.
//
// v2: the lane engine became the default execution engine and run keys
// gained a mandatory |eng= marker. Pre-flip entries were computed on the
// classic heap under unmarked keys; the version bump retires them wholesale
// rather than leaving classic-era artifacts to age in shared cache volumes.
//
// v3: metrics.Summary gained the Rejected outcome (admission control), which
// changes the serialized gob type descriptors; pre-gate entries stop
// matching instead of mixing layouts in shared cache volumes.
//
// Removing the classic engine did not bump the version: lane entries keep
// their keys and their bytes, and |eng=classic entries never match again.
//
// v4: metrics.Collector serializes fixed-size state — its tally, send-time
// buckets, record digest and latency histogram — instead of one record per
// request, and refuses on decode a state no run produces.
//
// v5: entries left gob for the binary codec the cluster fabric speaks
// (package wire): scope, key, and the value the key's prefix names, with no
// type information. A v4 gob entry is under another scope, so it hashes to
// another file name and never matches; one read anyway fails verification.
const diskFormat = 5

// The key prefixes the disk cache persists, each fixing its value's type:
// a run key holds a *simgpu.Result, a trace key a *trace.Trace. Other keys
// (a RAG run, pard-sim's comparison) live in memory only.
const (
	runPrefix   = "run|"
	tracePrefix = "trace|"
)

// appendEntry appends the persisted form of val under scope and key:
//
//	Scope | Key | value
//
// with the value in simgpu.AppendResult's or trace.AppendTrace's form. It
// reports false for a value its key's prefix does not name.
func appendEntry(b []byte, scope, key string, val any) ([]byte, bool) {
	b = wire.AppendStr(wire.AppendStr(b, scope), key)
	switch v := val.(type) {
	case *simgpu.Result:
		if strings.HasPrefix(key, runPrefix) && v != nil && v.Collector != nil {
			return simgpu.AppendResult(b, v), true
		}
	case *trace.Trace:
		if strings.HasPrefix(key, tracePrefix) && v != nil {
			return trace.AppendTrace(b, v), true
		}
	}
	return b, false
}

// decodeEntry decodes an entry read for key under scope. Scope and Key are
// stored in full and must match, so a filename-hash collision can never
// serve the wrong result, and the value must be what the key's prefix names.
func decodeEntry(data []byte, scope, key string) (any, error) {
	r := wire.NewReader(data)
	gotScope, gotKey := r.Str(), r.Str()
	if r.Err() == nil && (gotScope != scope || gotKey != key) {
		return nil, fmt.Errorf("entry fails verification (scope %q, key %q)", gotScope, gotKey)
	}
	var v any
	switch {
	case strings.HasPrefix(key, runPrefix):
		if res := simgpu.ReadResult(&r); res != nil {
			v = res
		}
	case strings.HasPrefix(key, tracePrefix):
		if tr := trace.ReadTrace(&r); tr != nil {
			v = tr
		}
	}
	if err := r.Done("disk entry"); err != nil {
		return nil, err
	}
	if v == nil {
		return nil, errors.New("entry holds no value its key names")
	}
	return v, nil
}

// diskCache persists finished artifacts (runs and traces) under their
// stable cache keys so repeated invocations — across processes — reuse
// finished grid points. Entries are written atomically and durably (temp
// file + fsync + rename + directory fsync, so a crash mid-write can never
// publish a truncated entry) and loads are best-effort: a corrupt or
// mismatched file is quarantined — renamed aside and logged — and treated
// as a miss, never a failed run.
type diskCache struct {
	dir   string
	scope string
	logf  func(format string, args ...any)

	mu          sync.Mutex
	hits        int
	misses      int
	quarantined int
}

// newDiskCache opens (creating if needed) a cache directory. The scope
// string pins everything that changes results without appearing in the
// artifact keys themselves: the base seed (run seeds derive from it) and
// the engine trace duration (run keys do not encode it).
func newDiskCache(dir string, baseSeed int64, scope string, logf func(string, ...any)) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &diskCache{
		dir:   dir,
		scope: fmt.Sprintf("v%d|seed=%d|%s", diskFormat, baseSeed, scope),
		logf:  logf,
	}, nil
}

// path maps a key to its cache file: an FNV-64a content hash of scope+key.
func (d *diskCache) path(key string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s", d.scope, key)
	return filepath.Join(d.dir, fmt.Sprintf("%016x.entry", h.Sum64()))
}

// load returns the cached value for key, if a valid entry exists. An entry
// that exists but cannot be decoded or verified, or a run that does not fit
// spec (the run key's, when not nil), is quarantined so the next lookup (and
// every other process sharing the directory) stops paying to re-read it.
func (d *diskCache) load(key string, spec *Spec) (any, bool) {
	path := d.path(key)
	f, err := os.Open(path)
	if err != nil {
		d.count(false)
		return nil, false
	}
	info, ierr := f.Stat()
	data, rerr := io.ReadAll(f)
	f.Close()
	if ierr != nil || rerr != nil {
		d.count(false)
		return nil, false
	}
	v, err := decodeEntry(data, d.scope, key)
	if err == nil && spec != nil {
		err = spec.Fits(v.(*simgpu.Result)) // a run key decodes to a result
	}
	if err != nil {
		// The filename hashes scope+key, so an entry that fails is a
		// corruption (or a hash collision) — either way it can never serve
		// this key again.
		d.quarantine(path, info, err.Error())
		d.count(false)
		return nil, false
	}
	d.count(true)
	return v, true
}

// quarantine renames a corrupt entry aside (best-effort) so it reads as a
// plain miss from now on, keeping the bytes around for a post-mortem. seen
// is the Stat of the bytes that were judged corrupt: if the file changed
// since — a concurrent store (this process or another sharing the dir) may
// have published a fresh valid entry under the same name — it is left
// alone rather than quarantining bytes nobody inspected.
func (d *diskCache) quarantine(path string, seen os.FileInfo, reason string) {
	if cur, err := os.Stat(path); err != nil ||
		cur.Size() != seen.Size() || !cur.ModTime().Equal(seen.ModTime()) {
		return
	}
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		// A concurrent engine may have quarantined it first.
		return
	}
	d.mu.Lock()
	d.quarantined++
	d.mu.Unlock()
	if d.logf != nil {
		d.logf("sweep: quarantined corrupt cache entry %s -> %s (%s)", path, dst, reason)
	}
}

// store persists a computed value. Failures are silent: the disk cache is
// an accelerator, never a correctness dependency. Durability is not: the
// temp file is fsynced before the rename and the directory after it, so a
// crash at any point leaves either the old entry, no entry, or the complete
// new entry — never truncated bytes under a valid name.
func (d *diskCache) store(key string, val any) {
	entry, ok := appendEntry(nil, d.scope, key, val)
	if !ok {
		return
	}
	tmp, err := os.CreateTemp(d.dir, "entry-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(entry)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, d.path(key)); err != nil {
		os.Remove(name)
		return
	}
	// Publish the rename itself: without a directory fsync a crash can roll
	// the rename back, resurfacing the (possibly deleted) temp name.
	if dir, err := os.Open(d.dir); err == nil {
		dir.Sync()
		dir.Close()
	}
}

// count tallies one lookup.
func (d *diskCache) count(hit bool) {
	d.mu.Lock()
	if hit {
		d.hits++
	} else {
		d.misses++
	}
	d.mu.Unlock()
}

// stats returns lookup counters.
func (d *diskCache) stats() (hits, misses int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits, d.misses
}
