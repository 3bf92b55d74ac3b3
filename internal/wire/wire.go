// Package wire holds the primitives of the repository's one binary codec:
// what the cluster fabric's frames, a sweep's work units and results, and the
// sweep engine's disk-cache entries are written in. Each message type's
// encoder and decoder live beside the type (or beside its one user) and are
// built from these.
//
// Integers and durations are zigzag varints, unsigned values uvarints,
// booleans one byte (0 or 1), floats 8 bytes big-endian IEEE 754, strings and
// slices a uvarint length followed by the elements, optional pointers a
// presence byte. Encoders append to a caller-supplied buffer, so a
// steady-state encode allocates nothing.
//
// The Reader fails closed: every count is checked against the bytes left
// before anything is allocated, varints must be minimal and booleans 0 or 1
// (so whatever decodes re-encodes to the identical bytes), and truncated
// input and trailing bytes are errors. An empty slice decodes as nil.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends v as 8 bytes big-endian IEEE 754.
func AppendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends a length and then each float.
func AppendFloats(b []byte, v []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, f := range v {
		b = AppendFloat(b, f)
	}
	return b
}

// AppendStr appends a length and then the string's bytes.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInts appends a length and then each integer as a zigzag varint.
func AppendInts[T ~int | ~int64](b []byte, v []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// AppendUints appends a length and then each value as a uvarint.
func AppendUints(b []byte, v []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// Reader consumes one encoded message. The first failure sticks: later reads
// return zero values, so a decoder checks the error once at the end (Done).
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

var (
	errTruncated = errors.New("truncated input")
	errVarint    = errors.New("malformed or non-minimal varint")
)

// Fail records err unless a failure is already recorded, and stops reading.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Uint reads a minimal uvarint.
func (r *Reader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(errTruncated)
		return 0
	case n < 0, n > 1 && r.b[n-1] == 0: // overflow, or padded: would not re-encode to the same bytes
		r.Fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a minimal zigzag varint.
func (r *Reader) Int() int64 {
	u := r.Uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Dur reads a duration.
func (r *Reader) Dur() time.Duration { return time.Duration(r.Int()) }

// Int32 reads a zigzag varint, refusing one an int32 cannot hold.
func (r *Reader) Int32() int32 {
	v := r.Int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Fail(fmt.Errorf("value %d overflows a 32-bit field", v))
		return 0
	}
	return int32(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(errTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a boolean byte, refusing anything but 0 and 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail(fmt.Errorf("boolean byte %#x", v))
	}
	return v == 1
}

// Float reads 8 bytes big-endian IEEE 754.
func (r *Reader) Float() float64 {
	if len(r.b) < 8 {
		r.Fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads an element count and refuses it unless the input still holds
// at least min bytes per element — before the caller allocates anything.
func (r *Reader) Count(min int) int {
	n := r.Uint()
	if n > uint64(len(r.b)/min) {
		r.Fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// Floats decodes a float slice into dst's storage, allocating only when dst
// is too short; a nil dst with no floats to read stays nil.
func (r *Reader) Floats(dst []float64) []float64 {
	n := r.Count(8)
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = r.Float()
	}
	return dst
}

// Str reads a string.
func (r *Reader) Str() string {
	n := r.Count(1)
	if n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Uints decodes a slice of uvarints; none to read decodes as nil.
func (r *Reader) Uints() []uint64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.Uint()
	}
	return v
}

// Integer reads one zigzag varint into T, refusing a value T cannot hold.
func Integer[T ~int | ~int64](r *Reader) T {
	v := r.Int()
	if int64(T(v)) != v {
		r.Fail(fmt.Errorf("value %d overflows %T", v, T(0)))
		return 0
	}
	return T(v)
}

// Ints decodes a slice of zigzag varints; none to read decodes as nil.
func Ints[T ~int | ~int64](r *Reader) []T {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = Integer[T](r)
	}
	return v
}

// Done reports the first failure of a decode of what, or the bytes it left.
func (r *Reader) Done(what string) error {
	if r.err != nil {
		return fmt.Errorf("decoding %s: %w", what, r.err)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("decoding %s: %d trailing bytes", what, len(r.b))
	}
	return nil
}
