package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip: every primitive decodes to what was appended, the reader
// ends exactly at the end, and empty slices decode as nil.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat(b, math.Inf(-1))
	b = AppendFloats(b, []float64{0.25, -0, math.MaxFloat64})
	b = AppendFloats(b, nil)
	b = AppendStr(b, "run|tm")
	b = AppendStr(b, "")
	b = AppendInts(b, []time.Duration{-time.Second, 0, math.MaxInt64})
	b = AppendInts[int](b, nil)
	b = AppendUints(b, []uint64{0, 1, math.MaxUint64})
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, math.MinInt32)
	b = append(b, 0xfe)

	r := NewReader(b)
	if !r.Bool() || r.Bool() {
		t.Fatal("booleans")
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Fatalf("float %v", v)
	}
	if v := r.Floats(nil); !reflect.DeepEqual(v, []float64{0.25, -0, math.MaxFloat64}) {
		t.Fatalf("floats %v", v)
	}
	if v := r.Floats(nil); v != nil {
		t.Fatalf("no floats decode as %#v, want nil", v)
	}
	if s1, s2 := r.Str(), r.Str(); s1 != "run|tm" || s2 != "" {
		t.Fatalf("strings %q, %q", s1, s2)
	}
	if v := Ints[time.Duration](&r); !reflect.DeepEqual(v, []time.Duration{-time.Second, 0, math.MaxInt64}) {
		t.Fatalf("ints %v", v)
	}
	if v := Ints[int](&r); v != nil {
		t.Fatalf("no ints decode as %#v, want nil", v)
	}
	if v := r.Uints(); !reflect.DeepEqual(v, []uint64{0, 1, math.MaxUint64}) {
		t.Fatalf("uints %v", v)
	}
	if v := r.Uint(); v != 300 {
		t.Fatalf("uint %d", v)
	}
	if v := r.Int32(); v != math.MinInt32 {
		t.Fatalf("int32 %d", v)
	}
	if v := r.Byte(); v != 0xfe {
		t.Fatalf("byte %#x", v)
	}
	if err := r.Done("test"); err != nil {
		t.Fatal(err)
	}
}

// TestFailsClosed: truncation, a padded or overflowing varint, a boolean
// byte other than 0 or 1, a count its bytes cannot back, an integer its
// field cannot hold and trailing bytes are each an error; the first one
// sticks, and every later read returns a zero value.
func TestFailsClosed(t *testing.T) {
	big := binary.AppendVarint(nil, math.MaxInt32+1)
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"empty", nil, func(r *Reader) { r.Uint() }, "truncated"},
		{"short float", []byte{1, 2, 3}, func(r *Reader) { r.Float() }, "truncated"},
		{"no byte", nil, func(r *Reader) { r.Byte() }, "truncated"},
		{"padded varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uint() }, "non-minimal"},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Int() }, "non-minimal"},
		{"boolean 2", []byte{2}, func(r *Reader) { r.Bool() }, "boolean byte"},
		{"count past the bytes", []byte{5, 1, 2}, func(r *Reader) { r.Str() }, "exceeds"},
		{"floats past the bytes", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Floats(nil) }, "exceeds"},
		{"int32 overflow", big, func(r *Reader) { r.Int32() }, "32-bit"},
		{"trailing", []byte{1, 7}, func(r *Reader) { r.Bool() }, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in)
			tc.read(&r)
			err := r.Done("test")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if r.Err() == nil {
				return // trailing bytes are Done's verdict, not a failed read
			}
			if r.Uint() != 0 || r.Str() != "" || Ints[int](&r) != nil {
				t.Fatal("a read after the failure returned a value")
			}
			if r.Done("again") == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("the first failure did not stick: %v", r.Err())
			}
		})
	}
}
